//! Golden-file test for the Prometheus text exposition: a fixed
//! [`WireStats`] + [`HealthSnapshot`] + [`SessionObsSnapshot`] fixture must
//! render byte-for-byte to `tests/golden/health.prom`. If the
//! renderer's output format changes deliberately, regenerate the golden
//! by running this test and copying the printed actual output over the
//! file.

use laelaps_bench::prom;
use laelaps_serve::wire::{WireShard, WireStage, WireStats};
use laelaps_serve::{
    HealthSnapshot, HealthTransition, HealthVerdict, RuleEval, SeriesSample, SessionObsRow,
    SessionObsSnapshot, SessionScores, SessionStats,
};

const GOLDEN: &str = include_str!("golden/health.prom");

fn fixture_stats() -> WireStats {
    WireStats {
        sessions: 64,
        retired_sessions: 3,
        frames_in: 655_360,
        frames_processed: 655_104,
        frames_dropped: 128,
        frames_refused: 64,
        frames_discarded: 64,
        events_out: 2_559,
        alarms_out: 17,
        max_drain_micros: 8_912,
        recent_frames_per_sec: 131_072.5,
        telemetry_enabled: true,
        trace_enabled: true,
        trace_minted: 2_560,
        trace_recorded: 10_240,
        trace_dropped: 4,
        trace_pinned: 21,
        stages: vec![
            WireStage {
                stage: 0, // wire_decode
                count: 2_560,
                sum: 128_000,
                max: 900,
                buckets: vec![(16, 2_000), (32, 560)],
            },
            WireStage {
                stage: 5, // classify
                count: 2_559,
                sum: 511_800,
                max: 4_096,
                buckets: vec![(48, 2_000), (80, 559)],
            },
        ],
        shards: vec![
            WireShard {
                shard: 0,
                sessions: 32,
                ring_depth_chunks: 7,
                in_flight_frames: 1_792,
            },
            WireShard {
                shard: 1,
                sessions: 32,
                ring_depth_chunks: 0,
                in_flight_frames: 0,
            },
        ],
    }
}

fn fixture_health() -> HealthSnapshot {
    HealthSnapshot {
        enabled: true,
        verdict: HealthVerdict::Degraded,
        ticks: 240,
        transitions_total: 2,
        rules: vec![
            RuleEval {
                name: "stage_p99:classify".into(),
                verdict: HealthVerdict::Ok,
                fast_burn: 0.125,
                slow_burn: 0.25,
            },
            RuleEval {
                name: "drop_rate".into(),
                verdict: HealthVerdict::Degraded,
                fast_burn: 1.5,
                slow_burn: 0.75,
            },
            RuleEval {
                name: "shard_stall".into(),
                verdict: HealthVerdict::Ok,
                fast_burn: 0.0,
                slow_burn: 0.0,
            },
        ],
        transitions: vec![
            HealthTransition {
                tick: 197,
                rule: "drop_rate".into(),
                from: HealthVerdict::Ok,
                to: HealthVerdict::Degraded,
                fast_burn: 1.5,
                slow_burn: 0.75,
            },
            HealthTransition {
                tick: 197,
                rule: "overall".into(),
                from: HealthVerdict::Ok,
                to: HealthVerdict::Degraded,
                fast_burn: 1.5,
                slow_burn: 0.75,
            },
        ],
        series: vec![SeriesSample {
            seq: 239,
            words: vec![2_730, 2_728, 2, 0, 0, 7],
        }],
    }
}

fn fixture_sessions() -> SessionObsSnapshot {
    SessionObsSnapshot {
        enabled: true,
        ticks: 9_120,
        top: vec![
            SessionObsRow {
                session: 41,
                shard: 0,
                generation: 2,
                patient: "chb07".into(),
                stats: SessionStats {
                    frames_in: 20_480,
                    frames_dropped: 128,
                    frames_refused: 0,
                    frames_discarded: 64,
                    frames_processed: 20_224,
                    events_out: 79,
                    alarms_out: 2,
                    drains: 311,
                    max_drain_micros: 8_912,
                    last_drain_tick: 9_119,
                    ewma_drain_us: 412,
                },
                scores: SessionScores {
                    latency: 96_344,
                    saturation: 2_177,
                    discard: 64,
                },
            },
            SessionObsRow {
                session: 7,
                shard: 1,
                generation: 1,
                patient: "chb01".into(),
                stats: SessionStats {
                    frames_in: 10_240,
                    frames_dropped: 0,
                    frames_refused: 0,
                    frames_discarded: 0,
                    frames_processed: 10_240,
                    events_out: 40,
                    alarms_out: 0,
                    drains: 160,
                    max_drain_micros: 2_048,
                    last_drain_tick: 9_040,
                    ewma_drain_us: 96,
                },
                scores: SessionScores {
                    latency: 11_520,
                    saturation: 310,
                    discard: 0,
                },
            },
        ],
        lookup: None,
    }
}

#[test]
fn exposition_matches_the_golden_file() {
    let actual = prom::render(&fixture_stats(), &fixture_health(), &fixture_sessions());
    if actual != GOLDEN {
        eprintln!("--- actual exposition ---\n{actual}\n--- end ---");
    }
    assert_eq!(
        actual, GOLDEN,
        "Prometheus exposition drifted from the golden file"
    );
}

#[test]
fn golden_covers_the_ci_gate_patterns() {
    // The CI perf job greps the scrape for these exact shapes; keep the
    // golden (and therefore the renderer) honest about them.
    assert!(GOLDEN.contains("laelaps_health_verdict 1\n"));
    assert!(GOLDEN.contains("laelaps_health_enabled 1\n"));
    assert!(GOLDEN.contains("laelaps_slo_burn_rate{rule=\"drop_rate\",window=\"fast\"} 1.5\n"));
    assert!(GOLDEN.contains("laelaps_stage_latency_us{stage=\"classify\",quantile=\"0.99\"}"));
    assert!(GOLDEN.contains("laelaps_shard_ring_depth_chunks{shard=\"0\"} 7\n"));
    assert!(GOLDEN.contains("laelaps_session_obs_enabled 1\n"));
    assert!(
        GOLDEN.contains("laelaps_session_frames_total{session=\"41\",outcome=\"dropped\"} 128\n")
    );
    assert!(GOLDEN.contains("laelaps_session_ewma_drain_us{session=\"41\"} 412\n"));
    assert!(GOLDEN.contains("laelaps_session_score{session=\"41\",dimension=\"latency\"} 96344\n"));
}
