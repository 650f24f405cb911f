//! Minimal Prometheus text-exposition (format 0.0.4) renderer for the
//! service's metric catalogue.
//!
//! Takes the [`MetricFamily`] list that [`laelaps_serve::metrics::scrape`]
//! builds — the same list a wire `StatsSnapshot` carries — and prints
//! each family's `# HELP` / `# TYPE` lines followed by its samples, every
//! name prefixed with [`NAMESPACE`]. This module owns no metric list: it
//! names no family and writes no help text, so a metric added to the
//! catalogue renders here without an edit. No client library, no
//! registry, just deterministic string assembly, so the output is stable
//! enough to golden-test byte for byte (`tests/golden/health.prom`).

use laelaps_serve::metrics::{MetricFamily, NAMESPACE};

/// Renders `f` the way Prometheus expects: shortest round-trip decimal
/// (Rust's `Display` for `f64`), with non-finite values spelled in the
/// exposition format's casing.
fn num(f: f64) -> String {
    if f.is_nan() {
        "NaN".to_string()
    } else if f == f64::INFINITY {
        "+Inf".to_string()
    } else if f == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{f}")
    }
}

/// Escapes a label value (backslash, quote, newline).
fn label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders one complete scrape: every family in catalogue order, each
/// as its HELP and TYPE lines and then one line per sample.
/// Deterministic for fixed inputs — suitable for golden tests and for
/// diffing two scrapes.
pub fn render(families: &[MetricFamily]) -> String {
    let mut out = String::new();
    for family in families {
        let name = &family.name;
        out.push_str(&format!("# HELP {NAMESPACE}{name} {}\n", family.help));
        out.push_str(&format!(
            "# TYPE {NAMESPACE}{name} {}\n",
            family.kind.name()
        ));
        for sample in &family.samples {
            out.push_str(NAMESPACE);
            out.push_str(&sample.name);
            if !sample.labels.is_empty() {
                let rendered: Vec<String> = sample
                    .labels
                    .iter()
                    .map(|(k, v)| format!("{k}=\"{}\"", label(v)))
                    .collect();
                out.push_str(&format!("{{{}}}", rendered.join(",")));
            }
            out.push_str(&format!(" {}\n", num(sample.value)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use laelaps_serve::metrics::scrape;
    use laelaps_serve::{HealthSnapshot, ServiceStats, SessionObsSnapshot};

    #[test]
    fn numbers_render_the_exposition_way() {
        assert_eq!(num(0.25), "0.25");
        assert_eq!(num(3.0), "3");
        assert_eq!(num(f64::NAN), "NaN");
        assert_eq!(num(f64::INFINITY), "+Inf");
        assert_eq!(num(f64::NEG_INFINITY), "-Inf");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(label("plain"), "plain");
        assert_eq!(label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn disabled_health_still_renders_the_gauge() {
        let text = render(&scrape(
            &ServiceStats::default(),
            &HealthSnapshot::default(),
            &SessionObsSnapshot::default(),
        ));
        assert!(text.contains("laelaps_health_enabled 0\n"));
        assert!(text.contains("laelaps_health_verdict 0\n"));
        assert!(!text.contains("slo_verdict{"), "no rules when disabled");
        assert!(text.contains("laelaps_session_obs_enabled 0\n"));
        assert!(
            !text.contains("session_frames_total{"),
            "no session rows when disabled"
        );
    }

    #[test]
    fn transitions_total_is_not_capped_by_the_journal() {
        let transition = laelaps_serve::HealthTransition {
            tick: 3,
            rule: "overall".into(),
            from: laelaps_serve::HealthVerdict::Ok,
            to: laelaps_serve::HealthVerdict::Critical,
            fast_burn: 1.0,
            slow_burn: 1.0,
        };
        let health = HealthSnapshot {
            enabled: true,
            transitions_total: 7,
            transitions: vec![transition.clone(), transition],
            ..HealthSnapshot::default()
        };
        let text = render(&scrape(
            &ServiceStats::default(),
            &health,
            &SessionObsSnapshot::default(),
        ));
        assert!(text.contains("laelaps_health_transitions_total 7\n"));
    }
}
