//! The metric catalogue: the one place that names a service metric.
//!
//! [`scrape`] flattens a [`ServiceStats`], a [`HealthSnapshot`] and a
//! [`SessionObsSnapshot`] into self-describing [`MetricFamily`] rows:
//! each family carries its name, help text and [`MetricKind`], and each
//! sample its own name, labels and value. Every exporter reads that list
//! and nothing else — the wire's `StatsSnapshot` carries it verbatim,
//! the Prometheus renderer prints it, and `laelapsctl` renders or looks
//! up samples by name with [`value`] — so a metric added here reaches
//! all of them without an edit to the wire codec or to any exporter.
//!
//! Names carry no namespace; Prometheus exposition prefixes each with
//! [`NAMESPACE`]. A summary's `_count` / `_sum` / `_max` samples stay in
//! their family, and only its quantile samples carry a `quantile` label.
//!
//! The per-session families are **bounded**: only the heavy-hitter
//! top-K rows contribute samples, never one row per live session, so
//! cardinality stays `O(shards × top_k)` however many sessions stream.
//!
//! # Examples
//!
//! ```
//! use laelaps_serve::metrics::{scrape, value};
//! use laelaps_serve::{DetectionService, ServeConfig};
//!
//! let service = DetectionService::new(ServeConfig::default());
//! let families = scrape(
//!     &service.stats(),
//!     &service.health_snapshot(),
//!     &service.session_obs_snapshot(None),
//! );
//! assert_eq!(value(&families, "sessions", &[]), Some(0.0));
//! assert_eq!(value(&families, "frames_total", &[("outcome", "in")]), Some(0.0));
//! ```

use crate::health::HealthSnapshot;
use crate::stats::{ServiceStats, SessionObsSnapshot};

/// Prefix of every family name in Prometheus exposition.
pub const NAMESPACE: &str = "laelaps_";

/// What a family measures, as Prometheus types it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing total.
    Counter,
    /// A level that may go up and down.
    Gauge,
    /// Quantile samples plus `_count`, `_sum` and `_max` samples.
    Summary,
}

impl MetricKind {
    /// Every kind, indexed by its wire byte.
    pub const ALL: [MetricKind; 3] = [MetricKind::Counter, MetricKind::Gauge, MetricKind::Summary];

    /// The Prometheus `# TYPE` word.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Summary => "summary",
        }
    }
}

/// One sample of a family: its own name (a summary's `_count` line is a
/// sample of the summary's family), its labels in exposition order, and
/// its value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Sample name, without [`NAMESPACE`].
    pub name: String,
    /// `(key, value)` label pairs in exposition order.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: f64,
}

/// One metric family: name, help, kind, and its samples in exposition
/// order. A family may have no samples (e.g. `slo_verdict` while health
/// evaluation is off).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFamily {
    /// Family name, without [`NAMESPACE`].
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// What the family measures.
    pub kind: MetricKind,
    /// The samples.
    pub samples: Vec<MetricSample>,
}

/// The value of the sample called `name` whose labels are exactly
/// `labels` (in any order), if `families` holds one.
pub fn value(families: &[MetricFamily], name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    families
        .iter()
        .flat_map(|family| &family.samples)
        .find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && labels
                    .iter()
                    .all(|&(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        })
        .map(|s| s.value)
}

/// Builds the family list one family at a time; samples land in the
/// family opened last.
struct Catalogue(Vec<MetricFamily>);

impl Catalogue {
    fn family(&mut self, name: &str, kind: MetricKind, help: &str) {
        self.0.push(MetricFamily {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: Vec::new(),
        });
    }

    /// A sample of the open family, named `family name + suffix`.
    fn sample(&mut self, suffix: &str, labels: &[(&str, &str)], value: f64) {
        let family = self.0.last_mut().expect("a family is open");
        family.samples.push(MetricSample {
            name: format!("{}{suffix}", family.name),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        });
    }

    /// A family with one unlabelled sample.
    fn scalar(&mut self, name: &str, kind: MetricKind, help: &str, value: f64) {
        self.family(name, kind, help);
        self.sample("", &[], value);
    }
}

fn flag(on: bool) -> f64 {
    u8::from(on) as f64
}

/// Every service metric, in exposition order: the service totals, stage
/// latency summaries, shard gauges, tracer, registry and adaptation
/// counters, then the health view and the per-session heavy hitters.
/// Deterministic for fixed inputs.
pub fn scrape(
    stats: &ServiceStats,
    health: &HealthSnapshot,
    sessions: &SessionObsSnapshot,
) -> Vec<MetricFamily> {
    use MetricKind::{Counter, Gauge, Summary};
    let t = &stats.totals;
    let tel = &stats.telemetry;
    let mut c = Catalogue(Vec::new());

    c.scalar(
        "sessions",
        Gauge,
        "Sessions currently registered.",
        stats.sessions as f64,
    );
    c.scalar(
        "retired_sessions",
        Gauge,
        "Sessions finished and retired from their shard.",
        stats.retired_sessions as f64,
    );
    c.family(
        "frames_total",
        Counter,
        "Frames by outcome: accepted (in), processed, dropped, refused, discarded.",
    );
    for (outcome, v) in [
        ("in", t.frames_in),
        ("processed", t.frames_processed),
        ("dropped", t.frames_dropped),
        ("refused", t.frames_refused),
        ("discarded", t.frames_discarded),
    ] {
        c.sample("", &[("outcome", outcome)], v as f64);
    }
    c.scalar(
        "events_total",
        Counter,
        "Classification events emitted.",
        t.events_out as f64,
    );
    c.scalar(
        "alarms_total",
        Counter,
        "Seizure alarms raised.",
        t.alarms_out as f64,
    );
    c.scalar(
        "max_drain_micros",
        Gauge,
        "Worst-case wall time of one drain batch, microseconds.",
        t.max_drain_micros as f64,
    );
    c.scalar(
        "recent_frames_per_sec",
        Gauge,
        "Frames drained per second over the trailing window.",
        tel.recent_frames_per_sec,
    );
    c.scalar(
        "telemetry_enabled",
        Gauge,
        "Whether stage timing is on (1) or off (0).",
        flag(tel.enabled),
    );

    c.family(
        "stage_latency_us",
        Summary,
        "Hot-path stage latency, microseconds (quantiles from the telemetry histograms).",
    );
    for (stage, hist) in tel.stages.iter().filter(|(_, h)| !h.is_empty()) {
        let stage = stage.name();
        for (q, v) in [
            ("0.5", hist.p50()),
            ("0.99", hist.p99()),
            ("0.999", hist.p999()),
        ] {
            c.sample("", &[("stage", stage), ("quantile", q)], v as f64);
        }
        c.sample("_count", &[("stage", stage)], hist.count as f64);
        c.sample("_sum", &[("stage", stage)], hist.sum as f64);
        c.sample("_max", &[("stage", stage)], hist.max as f64);
    }

    let shards: Vec<String> = tel.shards.iter().map(|s| s.shard.to_string()).collect();
    c.family(
        "shard_sessions",
        Gauge,
        "Live sessions pinned to the shard.",
    );
    for (id, s) in shards.iter().zip(&tel.shards) {
        c.sample("", &[("shard", id)], s.sessions as f64);
    }
    c.family(
        "shard_ring_depth_chunks",
        Gauge,
        "Chunks queued across the shard's session rings.",
    );
    for (id, s) in shards.iter().zip(&tel.shards) {
        c.sample("", &[("shard", id)], s.ring_depth_chunks as f64);
    }
    c.family(
        "shard_in_flight_frames",
        Gauge,
        "Accepted frames not yet processed or discarded on the shard.",
    );
    for (id, s) in shards.iter().zip(&tel.shards) {
        c.sample("", &[("shard", id)], s.in_flight_frames as f64);
    }

    c.scalar(
        "trace_enabled",
        Gauge,
        "Whether per-chunk causal tracing is on (1) or off (0).",
        flag(tel.trace.enabled),
    );
    c.family(
        "trace_spans_total",
        Counter,
        "Tracer accounting: ids minted, spans recorded, spans dropped.",
    );
    for (status, v) in [
        ("minted", tel.trace.minted),
        ("recorded", tel.trace.recorded),
        ("dropped", tel.trace.dropped),
    ] {
        c.sample("", &[("status", status)], v as f64);
    }
    c.scalar(
        "trace_pinned",
        Gauge,
        "Distinct pinned traces currently retained.",
        tel.trace.pinned as f64,
    );

    c.family(
        "registry_loads_total",
        Counter,
        "Model registry loads by result: served from the cache (hit) or read from disk (miss).",
    );
    c.sample("", &[("result", "hit")], tel.registry.hits as f64);
    c.sample("", &[("result", "miss")], tel.registry.misses as f64);
    c.scalar(
        "registry_evictions_total",
        Counter,
        "Models dropped from the registry cache by its LRU cap.",
        tel.registry.evictions as f64,
    );
    c.scalar(
        "registry_cached_models",
        Gauge,
        "Models currently held in the registry cache.",
        tel.registry.cached_entries as f64,
    );
    c.scalar(
        "adapt_feedback_total",
        Counter,
        "Feedback segments accepted by the adaptation engine.",
        tel.adapt.feedback_in as f64,
    );
    c.scalar(
        "adapt_retrains_total",
        Counter,
        "Retrainings that published a new model generation.",
        tel.adapt.retrains as f64,
    );
    c.scalar(
        "adapt_swaps_requested_total",
        Counter,
        "Live sessions that accepted a hot-swap request.",
        tel.adapt.swaps_requested as f64,
    );
    c.scalar(
        "adapt_failures_total",
        Counter,
        "Feedback segments that failed to absorb.",
        tel.adapt.failures as f64,
    );

    c.scalar(
        "health_enabled",
        Gauge,
        "Whether SLO health evaluation is running (1) or off (0).",
        flag(health.enabled),
    );
    c.scalar(
        "health_verdict",
        Gauge,
        "Folded service verdict: 0 = ok, 1 = degraded, 2 = critical.",
        health.verdict as u8 as f64,
    );
    c.scalar(
        "health_ticks_total",
        Counter,
        "Health evaluation ticks performed.",
        health.ticks as f64,
    );
    c.family(
        "slo_verdict",
        Gauge,
        "Per-rule verdict: 0 = ok, 1 = degraded, 2 = critical.",
    );
    for rule in &health.rules {
        c.sample("", &[("rule", &rule.name)], rule.verdict as u8 as f64);
    }
    c.family(
        "slo_burn_rate",
        Gauge,
        "Per-rule burn rate (observed / ceiling; 1.0 = at the objective's limit).",
    );
    for rule in &health.rules {
        c.sample(
            "",
            &[("rule", &rule.name), ("window", "fast")],
            rule.fast_burn,
        );
        c.sample(
            "",
            &[("rule", &rule.name), ("window", "slow")],
            rule.slow_burn,
        );
    }
    c.scalar(
        "health_transitions_total",
        Counter,
        "Verdict transitions (rule and overall) since the evaluator started.",
        health.transitions_total as f64,
    );

    c.scalar(
        "session_obs_enabled",
        Gauge,
        "Whether the per-session observability layer is on (1) or off (0).",
        flag(sessions.enabled),
    );
    c.scalar(
        "session_drain_ticks_total",
        Counter,
        "Shard-worker drain passes (the tick domain of session_last_drain_tick).",
        sessions.ticks as f64,
    );
    let rows: Vec<String> = sessions.top.iter().map(|r| r.session.to_string()).collect();
    c.family(
        "session_frames_total",
        Counter,
        "Heavy-hitter session frames by outcome (top-K rows only — bounded cardinality).",
    );
    for (id, row) in rows.iter().zip(&sessions.top) {
        for (outcome, v) in [
            ("in", row.stats.frames_in),
            ("processed", row.stats.frames_processed),
            ("dropped", row.stats.frames_dropped),
            ("discarded", row.stats.frames_discarded),
        ] {
            c.sample("", &[("session", id), ("outcome", outcome)], v as f64);
        }
    }
    c.family(
        "session_ewma_drain_us",
        Gauge,
        "Heavy-hitter session drain-latency EWMA, microseconds.",
    );
    for (id, row) in rows.iter().zip(&sessions.top) {
        c.sample("", &[("session", id)], row.stats.ewma_drain_us as f64);
    }
    c.family(
        "session_last_drain_tick",
        Gauge,
        "Drain tick of the session's last productive pass (compare with session_drain_ticks_total).",
    );
    for (id, row) in rows.iter().zip(&sessions.top) {
        c.sample("", &[("session", id)], row.stats.last_drain_tick as f64);
    }
    c.family(
        "session_score",
        Gauge,
        "Heavy-hitter score by dimension (cumulative; higher = worse).",
    );
    for (id, row) in rows.iter().zip(&sessions.top) {
        for (dimension, v) in [
            ("latency", row.scores.latency),
            ("saturation", row.scores.saturation),
            ("discard", row.scores.discard),
        ] {
            c.sample("", &[("session", id), ("dimension", dimension)], v as f64);
        }
    }

    c.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_matches_labels_in_any_order() {
        let families = vec![MetricFamily {
            name: "x".into(),
            help: "h".into(),
            kind: MetricKind::Gauge,
            samples: vec![MetricSample {
                name: "x".into(),
                labels: vec![("a".into(), "1".into()), ("b".into(), "2".into())],
                value: 7.0,
            }],
        }];
        assert_eq!(value(&families, "x", &[("b", "2"), ("a", "1")]), Some(7.0));
        assert_eq!(
            value(&families, "x", &[("a", "1")]),
            None,
            "labels must match exactly"
        );
        assert_eq!(value(&families, "y", &[]), None);
    }
}
