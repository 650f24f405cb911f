//! Live introspection client for a running [`laelaps_serve::IngestServer`].
//!
//! Opens a wire introspection connection (first message is a
//! `StatsRequest`/`TraceDumpRequest`/`HealthRequest`/
//! `SessionStatsRequest`, never a `Hello`) and renders what the server
//! answers — no session is opened, no model is touched, and the serving
//! hot path is never blocked.
//!
//! ```text
//! cargo run --release -p laelaps-bench --bin laelapsctl -- \
//!     --addr 127.0.0.1:7071 stats [--json | --prom]
//! cargo run --release -p laelaps-bench --bin laelapsctl -- \
//!     --addr 127.0.0.1:7071 trace [--limit 4096] [--out trace.json]
//! cargo run --release -p laelaps-bench --bin laelapsctl -- \
//!     --addr 127.0.0.1:7071 health [--json]
//! cargo run --release -p laelaps-bench --bin laelapsctl -- \
//!     --addr 127.0.0.1:7071 sessions [--session ID] [--json]
//! cargo run --release -p laelaps-bench --bin laelapsctl -- \
//!     --addr 127.0.0.1:7071 watch [--interval 2] [--count 0]
//! cargo run --release -p laelaps-bench --bin laelapsctl -- \
//!     --addr 127.0.0.1:7071 top [--interval 2] [--count 0]
//! ```
//!
//! `stats` prints the service totals, per-stage latency percentiles
//! (reconstructed from the wire histograms with the telemetry crate's
//! own bucket math), and per-shard saturation gauges; `--json` dumps the
//! same data machine-readably — including the per-session heavy-hitter
//! rows — and `--prom` emits a Prometheus text scrape (stats + health +
//! bounded `laelaps_session_*` families). `trace` fetches the flight
//! recorder's retained spans and writes them as Chrome trace-event JSON
//! — load the file in Perfetto (<https://ui.perfetto.dev>) to see each
//! chunk's wire-decode → ring → drain → publish causal chain per
//! session. `health` renders the SLO engine's verdict, per-rule burn
//! rates, and recent transitions. `sessions` renders the per-session
//! observability view: the worst sessions by heavy-hitter
//! score plus an optional `--session ID` lookup. `watch` refreshes a
//! top-like stats + health + sessions view in place every `--interval`
//! seconds (`--count 0` = until interrupted); `top` is the same live
//! refresh over just the worst-sessions table.

use std::net::TcpStream;

use laelaps_bench::json::Json;
use laelaps_bench::{arg_present, arg_value, chrome, prom, session_obs_json};
use laelaps_serve::wire::{read_message, write_message, Message, WireStats};
use laelaps_serve::{
    sample_label, HealthSnapshot, SessionObsRow, SessionObsSnapshot, Stage, SAMPLE_WORDS,
};

fn fail(reason: &str) -> ! {
    eprintln!("laelapsctl: {reason}");
    std::process::exit(1);
}

/// Sends one request and reads its reply on a fresh connection.
fn exchange(addr: &str, request: &Message) -> Message {
    let mut stream = TcpStream::connect(addr)
        .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
    write_message(&mut stream, request).unwrap_or_else(|e| fail(&format!("request failed: {e}")));
    let reply = read_message(&mut stream)
        .unwrap_or_else(|e| fail(&format!("malformed reply: {e}")))
        .unwrap_or_else(|| fail("server closed without answering"));
    let _ = write_message(&mut stream, &Message::Close);
    reply
}

/// Fetches the stats, health, *and* per-session snapshots on one
/// introspection connection (three requests back to back — the
/// introspection exchange keeps answering until `Close`).
fn fetch_snapshots(addr: &str) -> (Box<WireStats>, Box<HealthSnapshot>, Box<SessionObsSnapshot>) {
    let mut stream = TcpStream::connect(addr)
        .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
    let mut ask = |request: &Message| -> Message {
        write_message(&mut stream, request)
            .unwrap_or_else(|e| fail(&format!("request failed: {e}")));
        read_message(&mut stream)
            .unwrap_or_else(|e| fail(&format!("malformed reply: {e}")))
            .unwrap_or_else(|| fail("server closed without answering"))
    };
    let stats = match ask(&Message::StatsRequest) {
        Message::StatsSnapshot { stats } => stats,
        other => fail(&format!("expected StatsSnapshot, got {other:?}")),
    };
    let health = match ask(&Message::HealthRequest) {
        Message::HealthSnapshot { health } => health,
        other => fail(&format!("expected HealthSnapshot, got {other:?}")),
    };
    let sessions = match ask(&Message::SessionStatsRequest { session: None }) {
        Message::SessionStatsSnapshot { sessions } => sessions,
        other => fail(&format!("expected SessionStatsSnapshot, got {other:?}")),
    };
    let _ = write_message(&mut stream, &Message::Close);
    (stats, health, sessions)
}

/// Fetches one per-session snapshot, optionally with a lookup row.
fn fetch_sessions(addr: &str, session: Option<u64>) -> Box<SessionObsSnapshot> {
    match exchange(addr, &Message::SessionStatsRequest { session }) {
        Message::SessionStatsSnapshot { sessions } => sessions,
        other => fail(&format!("expected SessionStatsSnapshot, got {other:?}")),
    }
}

fn stats_json(stats: &WireStats, sessions: &SessionObsSnapshot) -> Json {
    Json::obj([
        ("sessions", Json::num_u64(stats.sessions as u64)),
        (
            "retired_sessions",
            Json::num_u64(stats.retired_sessions as u64),
        ),
        ("frames_in", Json::num_u64(stats.frames_in)),
        ("frames_processed", Json::num_u64(stats.frames_processed)),
        ("frames_dropped", Json::num_u64(stats.frames_dropped)),
        ("frames_refused", Json::num_u64(stats.frames_refused)),
        ("frames_discarded", Json::num_u64(stats.frames_discarded)),
        ("events_out", Json::num_u64(stats.events_out)),
        ("alarms_out", Json::num_u64(stats.alarms_out)),
        ("max_drain_micros", Json::num_u64(stats.max_drain_micros)),
        (
            "recent_frames_per_sec",
            Json::Num(stats.recent_frames_per_sec),
        ),
        ("telemetry_enabled", Json::Bool(stats.telemetry_enabled)),
        (
            "trace",
            Json::obj([
                ("enabled", Json::Bool(stats.trace_enabled)),
                ("minted", Json::num_u64(stats.trace_minted)),
                ("recorded", Json::num_u64(stats.trace_recorded)),
                ("dropped", Json::num_u64(stats.trace_dropped)),
                ("pinned", Json::num_u64(stats.trace_pinned)),
            ]),
        ),
        (
            "stages",
            Json::Arr(
                stats
                    .stages
                    .iter()
                    .map(|row| {
                        let hist = row.to_histogram();
                        Json::obj([
                            ("stage", Json::Str(stage_label(row.stage))),
                            ("count", Json::num_u64(hist.count)),
                            ("sum_us", Json::num_u64(hist.sum)),
                            ("mean_us", Json::Num((hist.mean() * 100.0).round() / 100.0)),
                            ("p50_us", Json::num_u64(hist.p50())),
                            ("p99_us", Json::num_u64(hist.p99())),
                            ("p999_us", Json::num_u64(hist.p999())),
                            ("max_us", Json::num_u64(hist.max)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "shards",
            Json::Arr(
                stats
                    .shards
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("shard", Json::num_u64(s.shard as u64)),
                            ("sessions", Json::num_u64(s.sessions as u64)),
                            (
                                "ring_depth_chunks",
                                Json::num_u64(s.ring_depth_chunks as u64),
                            ),
                            ("in_flight_frames", Json::num_u64(s.in_flight_frames)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("session_obs", session_obs_json(sessions)),
    ])
}

fn stage_label(raw: u8) -> String {
    match Stage::ALL.get(raw as usize) {
        Some(stage) => stage.name().to_string(),
        None => format!("stage_{raw}"),
    }
}

fn health_json(health: &HealthSnapshot) -> Json {
    Json::obj([
        ("enabled", Json::Bool(health.enabled)),
        ("verdict", Json::Str(health.verdict.name().to_string())),
        ("ticks", Json::num_u64(health.ticks)),
        (
            "rules",
            Json::Arr(
                health
                    .rules
                    .iter()
                    .map(|rule| {
                        Json::obj([
                            ("rule", Json::Str(rule.name.clone())),
                            ("verdict", Json::Str(rule.verdict.name().to_string())),
                            ("fast_burn", Json::Num(rule.fast_burn)),
                            ("slow_burn", Json::Num(rule.slow_burn)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "transitions",
            Json::Arr(
                health
                    .transitions
                    .iter()
                    .map(|t| {
                        Json::obj([
                            ("tick", Json::num_u64(t.tick)),
                            ("rule", Json::Str(t.rule.clone())),
                            ("from", Json::Str(t.from.name().to_string())),
                            ("to", Json::Str(t.to.name().to_string())),
                            ("fast_burn", Json::Num(t.fast_burn)),
                            ("slow_burn", Json::Num(t.slow_burn)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "series",
            Json::Arr(
                health
                    .series
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("seq", Json::num_u64(s.seq)),
                            (
                                "words",
                                Json::Arr(s.words.iter().map(|&w| Json::num_u64(w)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn print_health(health: &HealthSnapshot) {
    if !health.enabled {
        println!("health          off (enable ServeConfig::health on the server)");
        return;
    }
    println!(
        "health          {} after {} evaluation ticks",
        health.verdict.name(),
        health.ticks
    );
    if !health.rules.is_empty() {
        println!("rule                         verdict     fast     slow (burn)");
        for rule in &health.rules {
            println!(
                "{:<28} {:<8} {:>8.3} {:>8.3}",
                rule.name,
                rule.verdict.name(),
                rule.fast_burn,
                rule.slow_burn
            );
        }
    }
    for t in &health.transitions {
        println!(
            "tick {:<6} {} {} -> {} (fast {:.3}, slow {:.3})",
            t.tick,
            t.rule,
            t.from.name(),
            t.to.name(),
            t.fast_burn,
            t.slow_burn
        );
    }
}

/// The worst-sessions table: one row per heavy-hitter, worst combined
/// score first, plus the lookup row when one was requested.
fn print_sessions(sessions: &SessionObsSnapshot) {
    if !sessions.enabled {
        println!("sessions        off (enable ServeConfig::sessions on the server)");
        if let Some(row) = &sessions.lookup {
            println!("lookup (counters only — no heavy-hitter scores while off):");
            print_session_row(row, sessions.ticks);
        }
        return;
    }
    println!(
        "sessions        {} heavy hitters after {} drain ticks",
        sessions.top.len(),
        sessions.ticks
    );
    if !sessions.top.is_empty() {
        println!(
            "session  patient        shard gen       in   processed  dropped discarded \
             ewma_us last_tick    score"
        );
        for row in &sessions.top {
            print_session_row(row, sessions.ticks);
        }
    }
    if let Some(row) = &sessions.lookup {
        println!("lookup:");
        print_session_row(row, sessions.ticks);
    }
}

fn print_session_row(row: &SessionObsRow, ticks: u64) {
    let s = &row.stats;
    let staleness = if s.last_drain_tick == 0 {
        "never".to_string()
    } else {
        format!("-{}", ticks.saturating_sub(s.last_drain_tick))
    };
    println!(
        "{:<8} {:<14} {:>5} {:>3} {:>8} {:>11} {:>8} {:>9} {:>7} {:>9} {:>8}",
        row.session,
        row.patient,
        row.shard,
        row.generation,
        s.frames_in,
        s.frames_processed,
        s.frames_dropped,
        s.frames_discarded,
        s.ewma_drain_us,
        staleness,
        row.scores.combined()
    );
}

/// One-character sparkline over a series column, scaled to the column's
/// own maximum.
fn sparkline(series: &[Vec<u64>], word: usize) -> String {
    const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let values: Vec<u64> = series
        .iter()
        .map(|row| row.get(word).copied().unwrap_or(0))
        .collect();
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            let scaled = (v * (RAMP.len() as u64 - 1) + max / 2)
                .checked_div(max)
                .unwrap_or(0);
            RAMP[scaled as usize]
        })
        .collect()
}

/// The refreshing top-like view: service throughput, verdicts and burn
/// rates, shard saturation, the worst sessions, and sparklines over the
/// health time-series.
fn print_watch(stats: &WireStats, health: &HealthSnapshot, sessions: &SessionObsSnapshot) {
    print_stats(stats);
    println!();
    print_health(health);
    if sessions.enabled {
        println!();
        print_sessions(sessions);
    }
    if health.enabled && !health.series.is_empty() {
        let rows: Vec<Vec<u64>> = health.series.iter().map(|s| s.words.clone()).collect();
        println!();
        println!("last {} evaluation ticks:", rows.len());
        for word in 0..SAMPLE_WORDS {
            let values: Vec<u64> = rows
                .iter()
                .map(|r| r.get(word).copied().unwrap_or(0))
                .collect();
            let max = values.iter().copied().max().unwrap_or(0);
            // Only show columns that moved — ten stage-p99 columns of
            // flat zero are noise, not signal.
            if max == 0 {
                continue;
            }
            let name = sample_label(word).unwrap_or_else(|| format!("word_{word}"));
            println!("{:<24} {} (max {max})", name, sparkline(&rows, word));
        }
    }
}

fn print_stats(stats: &WireStats) {
    println!(
        "sessions        {} live, {} retired",
        stats.sessions, stats.retired_sessions
    );
    println!(
        "frames          {} in, {} processed, {} dropped, {} refused, {} discarded",
        stats.frames_in,
        stats.frames_processed,
        stats.frames_dropped,
        stats.frames_refused,
        stats.frames_discarded
    );
    println!(
        "output          {} events, {} alarms",
        stats.events_out, stats.alarms_out
    );
    println!(
        "throughput      {:.0} frames/s recent, {} us worst drain",
        stats.recent_frames_per_sec, stats.max_drain_micros
    );
    println!(
        "trace           {} (minted {}, recorded {}, dropped {}, pinned {})",
        if stats.trace_enabled { "on" } else { "off" },
        stats.trace_minted,
        stats.trace_recorded,
        stats.trace_dropped,
        stats.trace_pinned
    );
    if stats.telemetry_enabled && !stats.stages.is_empty() {
        println!("stage             count      p50      p99     p999      max (us)");
        for row in &stats.stages {
            let hist = row.to_histogram();
            println!(
                "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8}",
                stage_label(row.stage),
                hist.count,
                hist.p50(),
                hist.p99(),
                hist.p999(),
                hist.max
            );
        }
    }
    for shard in &stats.shards {
        println!(
            "shard {:<3} {} sessions, {} chunks queued, {} frames in flight",
            shard.shard, shard.sessions, shard.ring_depth_chunks, shard.in_flight_frames
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = arg_value(&args, "--addr")
        .unwrap_or_else(|| fail("--addr HOST:PORT is required (the IngestServer address)"));
    let command = args
        .iter()
        .find(|a| !a.starts_with("--") && a.as_str() != addr)
        .map(String::as_str)
        .unwrap_or("stats");

    match command {
        "stats" => {
            if arg_present(&args, "--prom") {
                let (stats, health, sessions) = fetch_snapshots(&addr);
                print!("{}", prom::render(&stats, &health, &sessions));
                return;
            }
            if arg_present(&args, "--json") {
                let (stats, _, sessions) = fetch_snapshots(&addr);
                print!("{}", stats_json(&stats, &sessions).render_pretty());
                return;
            }
            let reply = exchange(&addr, &Message::StatsRequest);
            let Message::StatsSnapshot { stats } = reply else {
                fail(&format!("expected StatsSnapshot, got {reply:?}"));
            };
            print_stats(&stats);
        }
        "health" => {
            let reply = exchange(&addr, &Message::HealthRequest);
            let Message::HealthSnapshot { health } = reply else {
                fail(&format!("expected HealthSnapshot, got {reply:?}"));
            };
            if arg_present(&args, "--json") {
                print!("{}", health_json(&health).render_pretty());
            } else {
                print_health(&health);
            }
        }
        "sessions" => {
            let session = arg_value(&args, "--session").map(|v| {
                v.parse::<u64>()
                    .unwrap_or_else(|_| fail("--session takes a session id"))
            });
            let sessions = fetch_sessions(&addr, session);
            if arg_present(&args, "--json") {
                print!("{}", session_obs_json(&sessions).render_pretty());
            } else {
                print_sessions(&sessions);
            }
        }
        "watch" | "top" => {
            let interval = arg_value(&args, "--interval")
                .map(|v| {
                    v.parse::<f64>()
                        .unwrap_or_else(|_| fail("--interval takes seconds"))
                })
                .unwrap_or(2.0)
                .max(0.1);
            let count = arg_value(&args, "--count")
                .map(|v| {
                    v.parse::<usize>()
                        .unwrap_or_else(|_| fail("--count takes a number"))
                })
                .unwrap_or(0);
            let mut shown = 0usize;
            loop {
                // Clear + home, like top: the view repaints in place.
                if command == "top" {
                    let sessions = fetch_sessions(&addr, None);
                    print!("\x1b[2J\x1b[H");
                    println!("laelapsctl top — {addr} (refresh {interval}s, ctrl-c to stop)");
                    println!();
                    print_sessions(&sessions);
                } else {
                    let (stats, health, sessions) = fetch_snapshots(&addr);
                    print!("\x1b[2J\x1b[H");
                    println!("laelapsctl watch — {addr} (refresh {interval}s, ctrl-c to stop)");
                    println!();
                    print_watch(&stats, &health, &sessions);
                }
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                shown += 1;
                if count != 0 && shown >= count {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_secs_f64(interval));
            }
        }
        "trace" => {
            let limit = arg_value(&args, "--limit")
                .map(|v| v.parse().unwrap_or_else(|_| fail("--limit takes a number")))
                .unwrap_or(0u32);
            let reply = exchange(&addr, &Message::TraceDumpRequest { limit });
            let Message::TraceDump {
                recorded,
                dropped,
                spans,
            } = reply
            else {
                fail(&format!("expected TraceDump, got {reply:?}"));
            };
            eprintln!(
                "laelapsctl: {} spans retained ({recorded} recorded, {dropped} dropped)",
                spans.len()
            );
            let doc = chrome::trace_document(&chrome::wire_spans(&spans));
            match arg_value(&args, "--out") {
                Some(path) => {
                    std::fs::write(&path, doc.render_pretty())
                        .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
                    eprintln!("laelapsctl: wrote {path} (load it in https://ui.perfetto.dev)");
                }
                None => print!("{}", doc.render_pretty()),
            }
        }
        other => fail(&format!(
            "unknown command {other:?}; use stats, trace, health, sessions, watch, or top"
        )),
    }
}
