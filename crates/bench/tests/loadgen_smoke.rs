//! Smoke-scale runs of the `loadgen` cohort harness: the binary must
//! complete a small workload and write its closing Prometheus scrape,
//! and the scrape must show that the workload really ran.

use std::process::{Command, Output};

/// Runs loadgen with `args` plus `--prom-out`, and returns the scrape.
fn run_with_scrape(name: &str, args: &[&str]) -> String {
    let file = format!("laelaps-loadgen-{name}-{}.prom", std::process::id());
    let prom = std::env::temp_dir().join(file);
    let status = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(args)
        .arg("--prom-out")
        .arg(&prom)
        .status()
        .expect("loadgen runs");
    assert!(status.success(), "loadgen exits cleanly");
    let scrape = std::fs::read_to_string(&prom).expect("prom scrape written");
    let _ = std::fs::remove_file(&prom);
    scrape
}

/// The value of the sample written as `series` (name and labels) in a
/// Prometheus text scrape.
fn sample(scrape: &str, series: &str) -> f64 {
    scrape
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{series} is in the scrape"))
        .parse()
        .unwrap_or_else(|_| panic!("{series} has a numeric value"))
}

#[test]
fn loadgen_smoke_scrape_shows_the_run() {
    let scrape = run_with_scrape("smoke", &["--sessions", "16", "--seconds", "2"]);

    // Frames flowed, every accepted frame was processed, events came out.
    let processed = sample(&scrape, "laelaps_frames_total{outcome=\"processed\"}");
    assert!(processed > 0.0);
    assert_eq!(
        processed,
        sample(&scrape, "laelaps_frames_total{outcome=\"in\"}")
    );
    assert!(sample(&scrape, "laelaps_events_total") > 0.0);

    // Telemetry saw the drain.
    assert_eq!(sample(&scrape, "laelaps_telemetry_enabled"), 1.0);
    assert!(sample(&scrape, "laelaps_stage_latency_us_count{stage=\"drain\"}") > 0.0);

    // A default run leaves the health engine off, and the scrape says so.
    assert_eq!(sample(&scrape, "laelaps_health_enabled"), 0.0);
}

/// `--health`: the same smoke workload with the SLO engine on must
/// report a real evaluation (ticks, rules) and carry the CI gate's
/// patterns. Open-loop arrival stretches the run past the evaluator's
/// 250 ms period — closed-loop smoke finishes in milliseconds, before
/// the first tick.
#[test]
fn loadgen_smoke_health_run_scrapes_the_evaluation() {
    let scrape = run_with_scrape(
        "smoke-health",
        &[
            "--sessions",
            "16",
            "--seconds",
            "2",
            "--arrival",
            "open",
            "--health",
        ],
    );
    assert_eq!(sample(&scrape, "laelaps_health_enabled"), 1.0);
    assert!(
        sample(&scrape, "laelaps_health_ticks_total") > 0.0,
        "the evaluator ticked during the run"
    );
    assert!(scrape.contains("\nlaelaps_slo_burn_rate{rule="));
    assert!(scrape.contains("\nlaelaps_health_verdict "));
    assert!(sample(&scrape, "laelaps_frames_total{outcome=\"processed\"}") > 0.0);
}

/// A flag loadgen does not know is a usage error, reported before any
/// model is trained: a typo must not silently run the default workload.
#[test]
fn loadgen_refuses_an_unknown_flag_before_training() {
    let Output { status, stderr, .. } = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(["--sesions", "64"])
        .output()
        .expect("loadgen runs");
    let stderr = String::from_utf8_lossy(&stderr);
    assert_eq!(status.code(), Some(2), "usage error: {stderr}");
    assert!(stderr.contains("unknown flag \"--sesions\""), "{stderr}");
    assert!(
        !stderr.contains("sessions over"),
        "trained nothing: {stderr}"
    );
}
