//! # laelaps-bench
//!
//! Regeneration entry points for every table and figure in the paper:
//!
//! * `cargo run -p laelaps-bench --release --bin table1` — Table I
//!   (per-patient detection quality, all four methods);
//! * `… --bin table2` — Table II (time/energy per classification);
//! * `… --bin fig3` — Fig. 3 (FDR vs energy scatter);
//! * `… --bin dtune` — §IV-B dimension tuning;
//! * `… --bin ablation` — §IV-B `tr = 0` ablation;
//!
//! plus Criterion micro-benchmarks (`cargo bench -p laelaps-bench`) for
//! the HD kernels, the streaming encoder, and the end-to-end
//! classification event.

#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod prom;

use json::Json;
use laelaps_serve::{SessionObsRow, SessionObsSnapshot};

/// Parses a `--flag value` style argument list (tiny helper shared by the
/// table binaries).
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Whether a bare `--flag` is present.
pub fn arg_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The per-session observability view as JSON: `enabled`, `ticks`, the
/// `top` rows worst first, and `lookup` when a session was asked for —
/// what `laelapsctl sessions --json` prints and loadgen's artifact
/// carries as `"session_obs"`.
pub fn session_obs_json(obs: &SessionObsSnapshot) -> Json {
    let mut fields = vec![
        ("enabled", Json::Bool(obs.enabled)),
        ("ticks", Json::num_u64(obs.ticks)),
        (
            "top",
            Json::Arr(obs.top.iter().map(session_row_json).collect()),
        ),
    ];
    if let Some(row) = &obs.lookup {
        fields.push(("lookup", session_row_json(row)));
    }
    Json::obj(fields)
}

fn session_row_json(row: &SessionObsRow) -> Json {
    let s = &row.stats;
    Json::obj([
        ("session", Json::num_u64(row.session)),
        ("patient", Json::Str(row.patient.clone())),
        ("shard", Json::num_u64(row.shard as u64)),
        ("generation", Json::num_u64(row.generation)),
        ("frames_in", Json::num_u64(s.frames_in)),
        ("frames_processed", Json::num_u64(s.frames_processed)),
        ("frames_dropped", Json::num_u64(s.frames_dropped)),
        ("frames_refused", Json::num_u64(s.frames_refused)),
        ("frames_discarded", Json::num_u64(s.frames_discarded)),
        ("events_out", Json::num_u64(s.events_out)),
        ("alarms_out", Json::num_u64(s.alarms_out)),
        ("last_drain_tick", Json::num_u64(s.last_drain_tick)),
        ("ewma_drain_us", Json::num_u64(s.ewma_drain_us)),
        (
            "scores",
            Json::obj([
                ("latency", Json::num_u64(row.scores.latency)),
                ("saturation", Json::num_u64(row.scores.saturation)),
                ("discard", Json::num_u64(row.scores.discard)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags() {
        let args: Vec<String> = ["--scale", "900", "--quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--scale").as_deref(), Some("900"));
        assert_eq!(arg_value(&args, "--ids"), None);
        assert!(arg_present(&args, "--quick"));
        assert!(!arg_present(&args, "--full"));
    }
}
