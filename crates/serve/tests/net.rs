//! TCP ingest guarantees: a fleet of remote producers streaming over
//! loopback gets byte-identical results to in-process detectors, with
//! explicit (`Throttle`) backpressure and zero silent drops; handshake
//! failures and protocol violations come back as wire errors.

mod common;

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use common::wire_digest::seal;
use common::{interleave, trained_model, two_state_signal};
use laelaps_core::{Detector, Label};
use laelaps_serve::adapt::AdaptationEngine;
use laelaps_serve::metrics::value;
use laelaps_serve::net::{IngestClient, IngestServer};
use laelaps_serve::wire::{read_message, write_message, Message, WIRE_VERSION};
use laelaps_serve::{
    DetectionService, ModelRegistry, ServeConfig, ServeError, Stage, TelemetryConfig, TraceConfig,
};

fn registry_with_models(tag: &str, patients: usize) -> (Arc<ModelRegistry>, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("laelaps-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    let models = [trained_model(61), trained_model(62)];
    let ids: Vec<String> = (0..patients).map(|i| format!("N{i:02}")).collect();
    for (i, id) in ids.iter().enumerate() {
        registry.save(id, &models[i % models.len()]).unwrap();
    }
    (registry, ids)
}

/// The headline acceptance test: 16 concurrent TCP clients stream
/// recordings through the ingest server; every client's event sequence
/// must be identical to a bare `Detector` over the same frames, with
/// backpressure exercised and every offered frame accounted for.
#[test]
fn sixteen_tcp_clients_match_bare_detectors_with_backpressure() {
    let clients = 16;
    let (registry, ids) = registry_with_models("parity", clients);
    // Small rings + fewer workers than clients: sustained pushes must hit
    // Full and surface as Throttle rather than drops.
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 4,
        ring_chunks: 2,
        ..ServeConfig::default()
    }));
    let server = IngestServer::bind("127.0.0.1:0", Arc::clone(&service), Arc::clone(&registry))
        .expect("server binds");
    let addr = server.local_addr();

    let frames_per_client = 512 * 20;
    let signals: Vec<Vec<Vec<f32>>> = (0..clients)
        .map(|i| two_state_signal(4, frames_per_client, 512 * 6..512 * 14, 700 + i as u64))
        .collect();

    let throttles_observed: u64 = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            let signal = &signals[i];
            workers.push(scope.spawn(move || {
                let mut client = IngestClient::connect(addr, id, 4).expect("handshake succeeds");
                let interleaved = interleave(signal);
                // 256-frame chunks (0.5 s of signal per wire frame).
                for chunk in interleaved.chunks(256 * 4) {
                    client.send_chunk(chunk).expect("chunk sends");
                }
                let throttles = client.throttles_seen();
                let events = client.finish().expect("server drains and closes cleanly");
                (events, throttles)
            }));
        }
        let mut total_throttles = 0;
        for (i, worker) in workers.into_iter().enumerate() {
            let (events, throttles) = worker.join().expect("client thread survives");
            let expected = Detector::new(registry.load(&ids[i]).unwrap().as_ref())
                .unwrap()
                .run(&signals[i])
                .unwrap();
            assert!(!expected.is_empty());
            assert_eq!(
                events, expected,
                "client {i}: TCP event stream must be identical to a bare Detector"
            );
            total_throttles += throttles;
        }
        total_throttles
    });

    // Backpressure must have been exercised and visible on both ends.
    // (Clients snapshot their count before the drain phase, so the
    // server's total can only be larger.)
    assert!(
        throttles_observed >= 1,
        "16 producers on 4 workers with 2-chunk rings must throttle at least once"
    );
    assert!(server.throttles_sent() >= throttles_observed);

    // Zero silent drops: every offered frame was accepted and processed.
    let stats = service.stats();
    let offered = (clients * frames_per_client) as u64;
    assert_eq!(stats.totals.frames_in, offered);
    assert_eq!(stats.totals.frames_processed, offered);
    assert_eq!(stats.totals.frames_dropped, 0);
    assert_eq!(stats.totals.frames_refused, 0);
    assert_eq!(stats.totals.frames_discarded, 0);

    drop(server);
    let _ = std::fs::remove_dir_all(registry.dir());
}

#[test]
fn unknown_patient_is_rejected_at_the_handshake() {
    let (registry, _ids) = registry_with_models("unknown", 1);
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }));
    let server = IngestServer::bind("127.0.0.1:0", service, Arc::clone(&registry)).unwrap();
    let err = IngestClient::connect(server.local_addr(), "NOBODY", 4).unwrap_err();
    assert!(
        matches!(err, ServeError::Remote { ref reason } if reason.contains("NOBODY")),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(registry.dir());
}

#[test]
fn electrode_mismatch_is_rejected_at_the_handshake() {
    let (registry, ids) = registry_with_models("electrodes", 1);
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }));
    let server = IngestServer::bind("127.0.0.1:0", service, Arc::clone(&registry)).unwrap();
    let err = IngestClient::connect(server.local_addr(), &ids[0], 7).unwrap_err();
    assert!(
        matches!(err, ServeError::Remote { ref reason } if reason.contains("electrodes")),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(registry.dir());
}

/// A protocol violation after the handshake (a server-only message sent
/// by the client) earns a wire `Error`, not a hang or a drop.
#[test]
fn protocol_violations_come_back_as_wire_errors() {
    let (registry, ids) = registry_with_models("protocol", 1);
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }));
    let server = IngestServer::bind("127.0.0.1:0", service, Arc::clone(&registry)).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_message(
        &mut stream,
        &Message::Hello {
            patient: ids[0].clone(),
            electrodes: 4,
        },
    )
    .unwrap();
    assert!(matches!(
        read_message(&mut stream).unwrap(),
        Some(Message::Accepted { .. })
    ));
    write_message(
        &mut stream,
        &Message::Accepted {
            session: 99,
            electrodes: 4,
        },
    )
    .unwrap();
    // The server answers with Error and closes (no frames were sent, so
    // no events precede it).
    match read_message(&mut stream).unwrap() {
        Some(Message::Error { reason }) => {
            assert!(reason.contains("unexpected"), "{reason}");
        }
        Some(other) => panic!("expected Error, got {other:?}"),
        None => panic!("stream closed without an Error frame"),
    }
    let _ = std::fs::remove_dir_all(registry.dir());
}

/// Opens a raw connection, performs the handshake, and returns the
/// stream positioned after `Accepted`, with a read timeout so a server
/// hang fails the test instead of wedging it.
fn raw_handshake(server: &IngestServer, patient: &str) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut write_half = stream.try_clone().unwrap();
    write_message(
        &mut write_half,
        &Message::Hello {
            patient: patient.into(),
            electrodes: 4,
        },
    )
    .unwrap();
    let mut read_half = stream.try_clone().unwrap();
    assert!(matches!(
        read_message(&mut read_half).unwrap(),
        Some(Message::Accepted { .. })
    ));
    stream
}

/// Reads server messages until the `Error` frame, skipping any events
/// that were already in flight.
fn expect_error(stream: &mut TcpStream, needle: &str) {
    loop {
        match read_message(stream).unwrap() {
            Some(Message::Error { reason }) => {
                assert!(
                    reason.contains(needle),
                    "reason {reason:?} lacks {needle:?}"
                );
                return;
            }
            Some(Message::Event { .. }) | Some(Message::Alarm { .. }) => {}
            Some(other) => panic!("expected Error, got {other:?}"),
            None => panic!("stream closed without an Error frame"),
        }
    }
}

/// Wire-hardening over a live connection: an unknown message tag must
/// come back as a clean protocol `Error` — never a panic or a hang.
#[test]
fn unknown_tag_on_a_live_connection_earns_a_wire_error() {
    let (registry, ids) = registry_with_models("hostile-tag", 1);
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }));
    let server = IngestServer::bind("127.0.0.1:0", service, Arc::clone(&registry)).unwrap();
    let mut stream = raw_handshake(&server, &ids[0]);
    let mut frame = Vec::new();
    frame.extend_from_slice(b"LW");
    frame.push(WIRE_VERSION);
    frame.push(0x7C); // no such tag
    frame.extend_from_slice(&0u32.to_le_bytes());
    seal(&mut frame);
    use std::io::Write;
    stream.write_all(&frame).unwrap();
    expect_error(&mut stream, "unknown message type");
    let _ = std::fs::remove_dir_all(registry.dir());
}

/// Zero-length `Frames` payloads violate the session's width contract:
/// clean protocol `Error`, not a hang.
#[test]
fn zero_length_frames_payload_earns_a_wire_error() {
    let (registry, ids) = registry_with_models("hostile-empty", 1);
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }));
    let server = IngestServer::bind("127.0.0.1:0", service, Arc::clone(&registry)).unwrap();
    let mut stream = raw_handshake(&server, &ids[0]);
    write_message(
        &mut stream.try_clone().unwrap(),
        &Message::Frames {
            chunk: Box::new([]),
        },
    )
    .unwrap();
    expect_error(&mut stream, "does not divide");
    let _ = std::fs::remove_dir_all(registry.dir());
}

/// A `Feedback` frame with an out-of-range label byte is rejected as
/// corrupt before any payload interpretation: clean `Error`, no panic.
#[test]
fn feedback_with_out_of_range_label_earns_a_wire_error() {
    let (registry, ids) = registry_with_models("hostile-label", 1);
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }));
    let registry2 = Arc::clone(&registry);
    let engine = Arc::new(AdaptationEngine::new(Arc::clone(&service), registry2));
    let server =
        IngestServer::bind_with_engine("127.0.0.1:0", service, Arc::clone(&registry), engine)
            .unwrap();
    let mut stream = raw_handshake(&server, &ids[0]);
    let mut frame = Vec::new();
    frame.extend_from_slice(b"LW");
    frame.push(WIRE_VERSION);
    frame.push(0x04); // Feedback
    frame.extend_from_slice(&5u32.to_le_bytes());
    frame.push(9); // label byte out of range
    frame.extend_from_slice(&0.5f32.to_le_bytes());
    seal(&mut frame);
    use std::io::Write;
    stream.write_all(&frame).unwrap();
    expect_error(&mut stream, "label");
    let _ = std::fs::remove_dir_all(registry.dir());
}

/// Feedback sent to a server without an adaptation engine is refused
/// with a protocol error naming the problem.
#[test]
fn feedback_without_an_engine_is_a_protocol_error() {
    let (registry, ids) = registry_with_models("no-engine", 1);
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }));
    let server = IngestServer::bind("127.0.0.1:0", service, Arc::clone(&registry)).unwrap();
    let mut stream = raw_handshake(&server, &ids[0]);
    write_message(
        &mut stream.try_clone().unwrap(),
        &Message::Feedback {
            label: Label::Ictal,
            chunk: vec![0.0f32; 4 * 512].into(),
        },
    )
    .unwrap();
    expect_error(&mut stream, "adaptation engine");
    let _ = std::fs::remove_dir_all(registry.dir());
}

/// The full remote loop: a TCP producer streams, sends confirmed-seizure
/// feedback, receives `ModelUpdated` at the exact stream boundary, and
/// the rest of its event stream is byte-identical to a bare detector
/// built from the published generation-1 model.
#[test]
fn tcp_feedback_retrains_hot_swaps_and_streams_model_updated() {
    let (registry, ids) = registry_with_models("adapt-loop", 1);
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }));
    let engine = Arc::new(AdaptationEngine::new(
        Arc::clone(&service),
        Arc::clone(&registry),
    ));
    let server = IngestServer::bind_with_engine(
        "127.0.0.1:0",
        Arc::clone(&service),
        Arc::clone(&registry),
        Arc::clone(&engine),
    )
    .unwrap();
    let patient = &ids[0];
    let model_a = registry.load(patient).unwrap();

    // Phase 1 background, then feedback, then phase 2 with a seizure
    // comfortably past the swap point.
    let phase1 = two_state_signal(4, 512 * 20, 0..0, 660);
    let phase2 = two_state_signal(4, 512 * 30, 512 * 10..512 * 22, 661);
    let confirmed = two_state_signal(4, 512 * 16, 0..512 * 16, 662);
    let full: Vec<Vec<f32>> = phase1
        .iter()
        .zip(&phase2)
        .map(|(a, b)| {
            let mut ch = a.clone();
            ch.extend_from_slice(b);
            ch
        })
        .collect();

    let mut client = IngestClient::connect(server.local_addr(), patient, 4).unwrap();
    for chunk in interleave(&phase1).chunks(256 * 4) {
        client.send_chunk(chunk).unwrap();
    }
    // Wait until the server has streamed back every phase-1 event: all
    // phase-1 frames are then processed, so the upcoming swap barrier
    // lands exactly at the phase boundary.
    let expected_phase1 = Detector::new(&model_a).unwrap().run(&phase1).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while client.events_seen() < expected_phase1.len() {
        assert!(
            std::time::Instant::now() < deadline,
            "phase 1 never drained"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    client
        .send_feedback(Label::Ictal, &interleave(&confirmed))
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while client.model_updates_seen() == 0 {
        assert!(std::time::Instant::now() < deadline, "no ModelUpdated");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(client.model_generation(), Some(1));

    for chunk in interleave(&phase2).chunks(256 * 4) {
        client.send_chunk(chunk).unwrap();
    }
    let events = client.finish().unwrap();

    // The published generation-1 model is what a fresh reader loads.
    registry.evict(patient);
    let model_b = registry.load(patient).unwrap();
    assert_eq!(model_b.generation(), 1);
    let expected_full_b = Detector::new(&model_b).unwrap().run(&full).unwrap();
    let n1 = expected_phase1.len();
    assert_eq!(&events[..n1], &expected_phase1[..], "pre-swap events");
    assert_eq!(&events[n1..], &expected_full_b[n1..], "post-swap events");
    assert!(events[n1..].iter().any(|e| e.alarm.is_some()));
    assert_eq!(engine.stats().retrains, 1);
    assert_eq!(engine.stats().failures, 0, "{:?}", engine.last_error());

    // The registry and adaptation counters reach an operator's
    // StatsRequest.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_message(&mut stream, &Message::StatsRequest).unwrap();
    let Some(Message::StatsSnapshot { families }) = read_message(&mut stream).unwrap() else {
        panic!("expected a StatsSnapshot");
    };
    let metric = |name: &str, labels: &[(&str, &str)]| {
        value(&families, name, labels).unwrap_or_else(|| panic!("{name} {labels:?} is missing"))
    };
    assert_eq!(metric("adapt_feedback_total", &[]), 1.0);
    assert_eq!(metric("adapt_retrains_total", &[]), 1.0);
    assert_eq!(metric("adapt_failures_total", &[]), 0.0);
    let loads = metric("registry_loads_total", &[("result", "hit")])
        + metric("registry_loads_total", &[("result", "miss")]);
    assert!(loads >= 1.0, "registry loads: {loads}");
    write_message(&mut stream, &Message::Close).unwrap();

    drop(server);
    let _ = std::fs::remove_dir_all(registry.dir());
}

/// The wire introspection path against a live server: a connection
/// whose first message is a `StatsRequest` becomes a read-only exchange
/// that answers stats and trace dumps until the peer closes — what
/// `laelapsctl` does, minus the rendering.
#[test]
fn introspection_connection_answers_stats_and_trace_dumps_live() {
    let (registry, ids) = registry_with_models("introspect", 1);
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 2,
        trace: TraceConfig::sampled(),
        ..ServeConfig::default()
    }));
    let server = IngestServer::bind("127.0.0.1:0", Arc::clone(&service), Arc::clone(&registry))
        .expect("server binds");
    let addr = server.local_addr();

    // Stream one short session so there is something to introspect.
    let frames = 512 * 4;
    let signal = two_state_signal(4, frames, 512..512 * 2, 900);
    let mut client = IngestClient::connect(addr, &ids[0], 4).expect("handshake succeeds");
    for chunk in interleave(&signal).chunks(256 * 4) {
        client.send_chunk(chunk).expect("chunk sends");
    }
    client.finish().expect("clean close");

    let mut stream = TcpStream::connect(addr).expect("introspection connects");
    write_message(&mut stream, &Message::StatsRequest).unwrap();
    let Some(Message::StatsSnapshot { families }) = read_message(&mut stream).unwrap() else {
        panic!("expected a StatsSnapshot");
    };
    assert_eq!(
        value(&families, "frames_total", &[("outcome", "in")]),
        Some(frames as f64),
        "live totals come back"
    );
    assert_eq!(
        value(&families, "frames_total", &[("outcome", "processed")]),
        Some(frames as f64)
    );
    assert_eq!(
        value(&families, "trace_enabled", &[]),
        Some(1.0),
        "trace accounting is surfaced"
    );
    assert!(
        value(&families, "trace_spans_total", &[("status", "minted")]).is_some_and(|v| v > 0.0),
        "accepted chunks minted trace ids"
    );

    // The same connection keeps answering until the peer closes.
    write_message(&mut stream, &Message::TraceDumpRequest { limit: 0 }).unwrap();
    let Some(Message::TraceDump {
        recorded, spans, ..
    }) = read_message(&mut stream).unwrap()
    else {
        panic!("expected a TraceDump");
    };
    assert!(recorded > 0, "spans reached the flight recorder");
    assert!(!spans.is_empty(), "retained spans come back");
    for span in &spans {
        assert!(span.stage < 10, "stage discriminant is known: {span:?}");
        assert_eq!(
            span.session, spans[0].session,
            "one session ⇒ one session id on every span"
        );
    }
    assert!(
        spans.iter().any(|s| s.stage == 0),
        "chunks arrived over TCP, so wire_decode spans must be present"
    );

    write_message(&mut stream, &Message::Close).unwrap();
    assert_eq!(
        read_message(&mut stream).unwrap(),
        None,
        "server closes the exchange cleanly"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(registry.dir());
}

/// A chunk's trace is minted when its frame arrives, so its first span is
/// its wire decode, even with stage timing off; a push retried against a
/// full ring keeps that trace instead of minting another.
#[test]
fn a_tcp_chunk_is_traced_from_its_decode_and_keeps_its_trace_across_retries() {
    let (registry, ids) = registry_with_models("decode-trace", 1);
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 1,
        ring_chunks: 1,
        telemetry: TelemetryConfig::disabled(),
        trace: TraceConfig::sampled(),
        ..ServeConfig::default()
    }));
    let server = IngestServer::bind("127.0.0.1:0", Arc::clone(&service), Arc::clone(&registry))
        .expect("server binds");
    let mut client = IngestClient::connect(server.local_addr(), &ids[0], 4).unwrap();
    // The wedged session's one-chunk ring fills with the first chunk; the
    // second is retried against it until the wedge lifts.
    service.debug_wedge_session(client.session(), true);
    let signal = two_state_signal(4, 256 * 4, 0..0, 910);
    for chunk in interleave(&signal).chunks(256 * 4) {
        client.send_chunk(chunk).expect("chunk sends");
    }
    std::thread::sleep(Duration::from_millis(100));
    service.debug_wedge_session(client.session(), false);
    client.finish().expect("clean close");
    assert!(server.throttles_sent() > 0, "a push was retried");

    let trace = service.trace_snapshot();
    assert_eq!(trace.minted, 4, "one trace per chunk, however often pushed");
    for id in 1..=4 {
        let stages: Vec<Stage> = trace
            .spans
            .iter()
            .filter(|s| s.trace_id == id)
            .map(|s| s.stage)
            .collect();
        assert_eq!(
            stages,
            [
                Stage::WireDecode,
                Stage::RingWait,
                Stage::Drain,
                Stage::Publish
            ],
            "trace {id}"
        );
    }
    drop(server);
    let _ = std::fs::remove_dir_all(registry.dir());
}

/// Dropping the server mid-stream unblocks and joins every connection
/// thread (no leaked readers waiting on dead sockets).
#[test]
fn server_shutdown_unblocks_live_connections() {
    let (registry, ids) = registry_with_models("shutdown", 1);
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }));
    let server = IngestServer::bind("127.0.0.1:0", service, Arc::clone(&registry)).unwrap();
    let mut client = IngestClient::connect(server.local_addr(), &ids[0], 4).unwrap();
    client.send_chunk(&vec![0.0f32; 4 * 256]).unwrap();
    // Drop with the connection open and idle: Drop must join the accept
    // thread and its connections without hanging the test.
    drop(server);
    let _ = std::fs::remove_dir_all(registry.dir());
}
