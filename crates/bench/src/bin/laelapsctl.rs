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
//! `stats` makes one `StatsRequest`; the server answers with its whole
//! metric catalogue ([`laelaps_serve::metrics::scrape`]: service totals,
//! stage latency summaries, shard gauges, tracer, registry and
//! adaptation counters, health verdicts and the bounded per-session
//! heavy hitters). Plain `stats` prints the service totals, per-stage
//! latency percentiles and per-shard saturation gauges, looking each up
//! by name. `--prom` prints the catalogue as a Prometheus text scrape.
//! `--json` prints one key per sample name: a name with one unlabelled
//! sample maps to its value (`"sessions": 3`, `"trace_enabled": 1`),
//! any other to an array of objects holding the sample's labels and
//! `value` (`"frames_total": [{"outcome": "in", "value": 4096}, …]`).
//!
//! `trace` fetches the flight recorder's retained spans and writes them
//! as Chrome trace-event JSON — load the file in Perfetto
//! (<https://ui.perfetto.dev>) to see each chunk's wire-decode → ring →
//! drain → publish causal chain per session. `health` renders the SLO
//! engine's verdict, per-rule burn rates, and recent transitions.
//! `sessions` renders the per-session observability view: the worst
//! sessions by heavy-hitter score plus an optional `--session ID`
//! lookup. `watch` refreshes a top-like stats + health + sessions view
//! in place every `--interval` seconds (`--count 0` = until
//! interrupted); `top` is the same live refresh over just the
//! worst-sessions table.

use std::net::TcpStream;

use laelaps_bench::json::Json;
use laelaps_bench::{args_or_exit, chrome, metrics_json, prom, session_obs_json};
use laelaps_serve::metrics::{value, MetricFamily};
use laelaps_serve::wire::{read_message, write_message, Message};
use laelaps_serve::{
    sample_label, HealthSnapshot, SessionObsRow, SessionObsSnapshot, SAMPLE_WORDS,
};

fn fail(reason: &str) -> ! {
    eprintln!("laelapsctl: {reason}");
    std::process::exit(1);
}

/// Sends `requests` back to back on one fresh introspection connection
/// (it keeps answering until `Close`) and reads the reply to each.
fn exchange<const N: usize>(addr: &str, requests: [Message; N]) -> [Message; N] {
    let mut stream = TcpStream::connect(addr)
        .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
    let replies = requests.map(|request| {
        write_message(&mut stream, &request)
            .unwrap_or_else(|e| fail(&format!("request failed: {e}")));
        read_message(&mut stream)
            .unwrap_or_else(|e| fail(&format!("malformed reply: {e}")))
            .unwrap_or_else(|| fail("server closed without answering"))
    });
    let _ = write_message(&mut stream, &Message::Close);
    replies
}

fn unexpected(expected: &str, reply: Message) -> ! {
    fail(&format!("expected {expected}, got {reply:?}"))
}

fn metrics_of(reply: Message) -> Vec<MetricFamily> {
    match reply {
        Message::StatsSnapshot { families } => families,
        other => unexpected("StatsSnapshot", other),
    }
}

fn health_of(reply: Message) -> Box<HealthSnapshot> {
    match reply {
        Message::HealthSnapshot { health } => health,
        other => unexpected("HealthSnapshot", other),
    }
}

fn sessions_of(reply: Message) -> Box<SessionObsSnapshot> {
    match reply {
        Message::SessionStatsSnapshot { sessions } => sessions,
        other => unexpected("SessionStatsSnapshot", other),
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

/// One character per value, scaled to `max`, the values' maximum.
fn sparkline(values: &[u64], max: u64) -> String {
    const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
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
fn print_watch(families: &[MetricFamily], health: &HealthSnapshot, sessions: &SessionObsSnapshot) {
    print_stats(families);
    println!();
    print_health(health);
    if sessions.enabled {
        println!();
        print_sessions(sessions);
    }
    if health.enabled && !health.series.is_empty() {
        println!();
        println!("last {} evaluation ticks:", health.series.len());
        for word in 0..SAMPLE_WORDS {
            let values: Vec<u64> = health
                .series
                .iter()
                .map(|s| s.words.get(word).copied().unwrap_or(0))
                .collect();
            let max = values.iter().copied().max().unwrap_or(0);
            // Only show columns that moved — stage-p99 columns of flat
            // zero are noise, not signal.
            if max == 0 {
                continue;
            }
            let name = sample_label(word).unwrap_or_else(|| format!("word_{word}"));
            println!("{:<24} {} (max {max})", name, sparkline(&values, max));
        }
    }
}

/// The `key` label of every sample called `name`, in catalogue order.
fn labels_of(families: &[MetricFamily], name: &str, key: &str) -> Vec<String> {
    families
        .iter()
        .flat_map(|f| &f.samples)
        .filter(|s| s.name == name)
        .filter_map(|s| s.labels.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v.clone())
        .collect()
}

fn print_stats(families: &[MetricFamily]) {
    let get = |name: &str, labels: &[(&str, &str)]| value(families, name, labels).unwrap_or(0.0);
    let count = |name: &str, labels: &[(&str, &str)]| get(name, labels) as u64;
    let frames = |outcome| count("frames_total", &[("outcome", outcome)]);
    let spans = |status| count("trace_spans_total", &[("status", status)]);
    println!(
        "sessions        {} live, {} retired",
        count("sessions", &[]),
        count("retired_sessions", &[])
    );
    println!(
        "frames          {} in, {} processed, {} dropped, {} refused, {} discarded",
        frames("in"),
        frames("processed"),
        frames("dropped"),
        frames("refused"),
        frames("discarded")
    );
    println!(
        "output          {} events, {} alarms",
        count("events_total", &[]),
        count("alarms_total", &[])
    );
    println!(
        "throughput      {:.0} frames/s recent, {} us worst drain",
        get("recent_frames_per_sec", &[]),
        count("max_drain_micros", &[])
    );
    println!(
        "trace           {} (minted {}, recorded {}, dropped {}, pinned {})",
        if count("trace_enabled", &[]) == 1 {
            "on"
        } else {
            "off"
        },
        spans("minted"),
        spans("recorded"),
        spans("dropped"),
        count("trace_pinned", &[])
    );
    let stages = labels_of(families, "stage_latency_us_count", "stage");
    if count("telemetry_enabled", &[]) == 1 && !stages.is_empty() {
        println!("stage             count      p50      p99     p999      max (us)");
        for stage in &stages {
            let row = |name| count(name, &[("stage", stage)]);
            let quantile = |q| count("stage_latency_us", &[("stage", stage), ("quantile", q)]);
            println!(
                "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8}",
                stage,
                row("stage_latency_us_count"),
                quantile("0.5"),
                quantile("0.99"),
                quantile("0.999"),
                row("stage_latency_us_max")
            );
        }
    }
    for shard in labels_of(families, "shard_sessions", "shard") {
        let gauge = |name| count(name, &[("shard", &shard)]);
        println!(
            "shard {:<3} {} sessions, {} chunks queued, {} frames in flight",
            shard,
            gauge("shard_sessions"),
            gauge("shard_ring_depth_chunks"),
            gauge("shard_in_flight_frames")
        );
    }
}

const USAGE: &str = "laelapsctl --addr HOST:PORT [stats|trace|health|sessions|watch|top] \
                     [--json|--prom] [--limit N] [--out PATH] [--session ID] \
                     [--interval S] [--count N]";

fn main() {
    let args = args_or_exit(
        USAGE,
        &[
            "--addr",
            "--limit",
            "--out",
            "--session",
            "--interval",
            "--count",
        ],
        &["--json", "--prom"],
    );
    let addr = args
        .value("--addr")
        .unwrap_or_else(|| fail("--addr HOST:PORT is required (the IngestServer address)"))
        .to_string();
    let command = match args.positionals.as_slice() {
        [] => "stats",
        [command] => command.as_str(),
        more => args.usage_error(&format!("one command, got {more:?}")),
    };

    match command {
        "stats" => {
            let [reply] = exchange(&addr, [Message::StatsRequest]);
            let families = metrics_of(reply);
            if args.present("--prom") {
                print!("{}", prom::render(&families));
            } else if args.present("--json") {
                print!("{}", metrics_json(&families).render_pretty());
            } else {
                print_stats(&families);
            }
        }
        "health" => {
            let [reply] = exchange(&addr, [Message::HealthRequest]);
            let health = health_of(reply);
            if args.present("--json") {
                print!("{}", health_json(&health).render_pretty());
            } else {
                print_health(&health);
            }
        }
        "sessions" => {
            let session = args
                .present("--session")
                .then(|| args.parsed("--session", 0u64));
            let [reply] = exchange(&addr, [Message::SessionStatsRequest { session }]);
            let sessions = sessions_of(reply);
            if args.present("--json") {
                print!("{}", session_obs_json(&sessions).render_pretty());
            } else {
                print_sessions(&sessions);
            }
        }
        "watch" | "top" => {
            let interval = args.parsed("--interval", 2.0f64).max(0.1);
            let count = args.parsed("--count", 0usize);
            let mut shown = 0usize;
            loop {
                // Clear + home, like top: the view repaints in place.
                if command == "top" {
                    let [reply] = exchange(&addr, [Message::SessionStatsRequest { session: None }]);
                    let sessions = sessions_of(reply);
                    print!("\x1b[2J\x1b[H");
                    println!("laelapsctl top — {addr} (refresh {interval}s, ctrl-c to stop)");
                    println!();
                    print_sessions(&sessions);
                } else {
                    let [stats, health, sessions] = exchange(
                        &addr,
                        [
                            Message::StatsRequest,
                            Message::HealthRequest,
                            Message::SessionStatsRequest { session: None },
                        ],
                    );
                    let (families, health) = (metrics_of(stats), health_of(health));
                    let sessions = sessions_of(sessions);
                    print!("\x1b[2J\x1b[H");
                    println!("laelapsctl watch — {addr} (refresh {interval}s, ctrl-c to stop)");
                    println!();
                    print_watch(&families, &health, &sessions);
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
            let limit = args.parsed("--limit", 0u32);
            let [reply] = exchange(&addr, [Message::TraceDumpRequest { limit }]);
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
            match args.value("--out") {
                Some(path) => {
                    std::fs::write(path, doc.render_pretty())
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
