//! End-to-end check of the `laelapsctl` binary: it must retrieve a live
//! `StatsSnapshot` and a trace dump from a running
//! [`laelaps_serve::net::IngestServer`] over TCP, exercised against the
//! real compiled binary.

use std::process::{Command, Output};
use std::sync::Arc;

use laelaps_bench::json::Json;
use laelaps_serve::net::IngestServer;
use laelaps_serve::{DetectionService, ModelRegistry, ServeConfig, TraceConfig};

/// Runs the `laelapsctl` binary with `args`.
fn ctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_laelapsctl"))
        .args(args)
        .output()
        .expect("laelapsctl runs")
}

/// Runs `laelapsctl` with `args`, which must succeed, and returns its
/// stdout.
fn ctl_ok(args: &[&str]) -> String {
    let out = ctl(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "laelapsctl {args:?}: {stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// [`ctl_ok`]'s stdout, parsed as JSON.
fn ctl_json(args: &[&str]) -> Json {
    Json::parse(&ctl_ok(args)).expect("valid JSON")
}

#[test]
fn laelapsctl_reads_live_stats_and_traces_over_tcp() {
    let dir = std::env::temp_dir().join(format!("laelaps-ctl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(ModelRegistry::open(&dir).expect("registry opens"));
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 1,
        trace: TraceConfig::sampled(),
        ..ServeConfig::default()
    }));
    let server = IngestServer::bind("127.0.0.1:0", Arc::clone(&service), Arc::clone(&registry))
        .expect("server binds");
    let addr = server.local_addr().to_string();

    // `stats --json`: a machine-readable snapshot of the live service.
    let stats = ctl_json(&["--addr", &addr, "stats", "--json"]);
    assert_eq!(
        stats.get("sessions").and_then(Json::as_f64),
        Some(0.0),
        "fresh server has no sessions"
    );
    assert_eq!(stats.get("trace_enabled").and_then(Json::as_f64), Some(1.0));

    // Plain `stats` renders human-readable text without failing.
    let text = ctl_ok(&["--addr", &addr, "stats"]);
    assert!(text.contains("sessions"), "text rendering: {text}");
    assert!(
        text.contains("trace           on"),
        "text rendering: {text}"
    );

    // `trace` exports Chrome trace-event JSON (empty: nothing streamed).
    let doc = ctl_json(&["--addr", &addr, "trace"]);
    assert_eq!(
        doc.get("traceEvents").and_then(Json::as_array),
        Some(&[] as &[Json]),
        "no sessions streamed, so no spans"
    );

    // A flag's value ahead of the command is still the flag's value.
    let doc = ctl_json(&["--addr", &addr, "--limit", "5", "trace"]);
    assert!(doc.get("traceEvents").is_some());

    // A flag laelapsctl does not know is a usage error, not ignored.
    let out = ctl(&["--addr", &addr, "stats", "--jsn"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag \"--jsn\""));

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The per-session surface end-to-end: with the heavy-hitter layer on
/// and one session streaming, `laelapsctl sessions` (text + `--json`,
/// with and without `--session`) must rank it, and `stats --json` must
/// report the layer on (`session_obs_enabled`).
#[test]
fn laelapsctl_ranks_live_sessions_over_tcp() {
    use laelaps_core::{LaelapsConfig, Trainer, TrainingData};
    use laelaps_serve::SessionObsConfig;

    let config = LaelapsConfig::builder().dim(512).seed(91).build().unwrap();
    let signal: Vec<Vec<f32>> = (0..4)
        .map(|ch| {
            (0..512 * 60)
                .map(|t| ((t * (ch + 3)) % 97) as f32 / 97.0 - 0.5)
                .collect()
        })
        .collect();
    let data = TrainingData::new(&signal)
        .ictal(512 * 40..512 * 55)
        .interictal(512 * 5..512 * 35);
    let model = Trainer::new(config).train(&data).unwrap();

    let dir = std::env::temp_dir().join(format!("laelaps-ctl-sess-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(ModelRegistry::open(&dir).expect("registry opens"));
    let service = Arc::new(DetectionService::new(ServeConfig {
        workers: 1,
        sessions: SessionObsConfig::enabled(),
        ..ServeConfig::default()
    }));
    let server = IngestServer::bind("127.0.0.1:0", Arc::clone(&service), Arc::clone(&registry))
        .expect("server binds");
    let addr = server.local_addr().to_string();

    let mut handle = service.open_session("C00", &model).expect("session opens");
    let session_id = handle.id();
    handle
        .try_push_chunk(vec![0.0f32; 256 * 4].into_boxed_slice())
        .expect("ring has room");
    service.flush();

    // `sessions --json`: the streaming session is the (only) heavy hitter.
    let doc = ctl_json(&["--addr", &addr, "sessions", "--json"]);
    assert_eq!(doc.get("enabled").and_then(Json::as_bool), Some(true));
    let top = doc.get("top").and_then(Json::as_array).expect("top array");
    assert_eq!(top.len(), 1, "one live session ranks");
    assert_eq!(
        top[0].get("session").and_then(Json::as_f64),
        Some(session_id as f64)
    );
    assert_eq!(
        top[0].get("frames_in").and_then(Json::as_f64),
        Some(256.0 * 4.0 / 4.0)
    );

    // `--session <id>` lookup rides the same reply, and the flag may
    // stand ahead of the command.
    let id = session_id.to_string();
    for args in [
        ["--addr", &addr, "sessions", "--session", &id, "--json"],
        ["--addr", &addr, "--session", &id, "sessions", "--json"],
    ] {
        let doc = ctl_json(&args);
        let lookup = doc.get("lookup").expect("lookup row");
        assert_eq!(
            lookup.get("session").and_then(Json::as_f64),
            Some(session_id as f64),
            "{args:?}"
        );
    }

    // Plain text rendering names the session and its patient.
    let text = ctl_ok(&["--addr", &addr, "sessions"]);
    assert!(text.contains("C00"), "text rendering: {text}");

    // `stats --json` reports the per-session layer on.
    let stats = ctl_json(&["--addr", &addr, "stats", "--json"]);
    assert_eq!(
        stats.get("session_obs_enabled").and_then(Json::as_f64),
        Some(1.0)
    );

    handle.close();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
