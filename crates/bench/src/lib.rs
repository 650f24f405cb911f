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
use laelaps_serve::metrics::MetricFamily;
use laelaps_serve::{SessionObsRow, SessionObsSnapshot};

/// A command line split into known flags and positionals by
/// [`parse_args`].
#[derive(Debug, Default)]
pub struct Args {
    usage: &'static str,
    flags: Vec<(String, Option<String>)>,
    /// The arguments that are neither a flag nor a flag's value, in order.
    pub positionals: Vec<String>,
}

impl Args {
    /// The value of the last `flag value` pair given for `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let given = self.flags.iter().rev().find(|(name, _)| name == flag);
        given.and_then(|(_, value)| value.as_deref())
    }

    /// Whether `flag` was given.
    pub fn present(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| name == flag)
    }

    /// The value of `flag` as a `T`, or `default` when the flag was not
    /// given; a value that does not parse is a usage error.
    pub fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        let Some(raw) = self.value(flag) else {
            return default;
        };
        raw.parse()
            .unwrap_or_else(|_| self.usage_error(&format!("{flag} does not take {raw:?}")))
    }

    /// Prints `reason` and the usage line to stderr and exits with
    /// status 2.
    pub fn usage_error(&self, reason: &str) -> ! {
        eprintln!("{reason}\nusage: {}", self.usage);
        std::process::exit(2);
    }

    /// These arguments, for a program that takes flags only; a
    /// positional is a usage error.
    pub fn flags_only(self) -> Self {
        if let Some(extra) = self.positionals.first() {
            self.usage_error(&format!("unexpected argument {extra:?}"));
        }
        self
    }
}

/// Splits `argv` into known flags and positionals. `valued` flags take
/// the next argument as their value, wherever they stand, so a flag's
/// value is never read as a positional; `switches` stand alone.
///
/// # Errors
///
/// Any other argument starting with `-`, and a valued flag with nothing
/// after it, are usage errors.
pub fn parse_args(
    usage: &'static str,
    argv: &[String],
    valued: &[&str],
    switches: &[&str],
) -> Result<Args, String> {
    let mut args = Args {
        usage,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if valued.contains(&arg.as_str()) {
            let value = it.next().ok_or_else(|| format!("{arg} takes a value"))?;
            args.flags.push((arg.clone(), Some(value.clone())));
        } else if switches.contains(&arg.as_str()) {
            args.flags.push((arg.clone(), None));
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag {arg:?}"));
        } else {
            args.positionals.push(arg.clone());
        }
    }
    Ok(args)
}

/// [`parse_args`] over this process's arguments; a usage error exits
/// with status 2 before the program does anything.
pub fn args_or_exit(usage: &'static str, valued: &[&str], switches: &[&str]) -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let no_args = Args {
        usage,
        ..Args::default()
    };
    parse_args(usage, &argv, valued, switches).unwrap_or_else(|e| no_args.usage_error(&e))
}

/// The metric catalogue as one JSON object — what `laelapsctl stats
/// --json` prints. Each sample name is one key, in catalogue order. A
/// name with a single unlabelled sample maps to its value; any other
/// name maps to an array of objects, each holding that sample's labels
/// and its `value`.
pub fn metrics_json(families: &[MetricFamily]) -> Json {
    let mut keys: Vec<(String, Vec<Json>)> = Vec::new();
    for sample in families.iter().flat_map(|f| &f.samples) {
        let mut row: Vec<(String, Json)> = sample
            .labels
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect();
        row.push(("value".to_string(), Json::Num(sample.value)));
        match keys.iter_mut().find(|(name, _)| *name == sample.name) {
            Some((_, rows)) => rows.push(Json::Obj(row)),
            None => keys.push((sample.name.clone(), vec![Json::Obj(row)])),
        }
    }
    Json::Obj(
        keys.into_iter()
            .map(|(name, rows)| {
                let value = match rows.as_slice() {
                    [Json::Obj(row)] if row.len() == 1 => row[0].1.clone(),
                    _ => Json::Arr(rows),
                };
                (name, value)
            })
            .collect(),
    )
}

/// The per-session observability view as JSON: `enabled`, `ticks`, the
/// `top` rows worst first, and `lookup` when a session was asked for —
/// what `laelapsctl sessions --json` prints.
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
    fn splits_known_flags_from_positionals() {
        let argv = |words: &[&str]| words.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let known =
            |words: &[&str]| parse_args("", &argv(words), &["--limit", "--out"], &["--json"]);
        let args = known(&["--limit", "5", "trace", "--json", "--out", "x"]).unwrap();
        assert_eq!(args.positionals, ["trace"]);
        assert_eq!(
            (args.value("--limit"), args.parsed("--limit", 0u32)),
            (Some("5"), 5)
        );
        assert_eq!(args.parsed("--count", 7u32), 7);
        assert!(args.present("--json") && !args.present("--prom"));
        for bad in [&["--sesions", "64"][..], &["--limit"], &["-h"]] {
            assert!(known(bad).is_err(), "{bad:?}");
        }
    }
}
