//! Named hot-path stages and their latency histograms.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::TelemetryConfig;

/// A hot-path stage of the serving pipeline, end to end: wire decode →
/// ring enqueue → ring wait → drain → outbox publish, plus the
/// adaptation loop's retrain and feedback→hot-swap propagation.
///
/// Each stage owns one latency [`Histogram`] (microseconds) in a
/// [`StageSet`]. The drain span covers encode, classify and postprocess.
/// Stage numbers ride the wire (trace spans, health series words), so
/// adding, removing or reordering a stage bumps the wire version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Reading + checksumming + parsing one wire message's body after
    /// its header arrived (server side; excludes idle socket waits).
    WireDecode,
    /// Accepting one ingest chunk into its session ring, including any
    /// throttle stalls while the ring was full (server reader side).
    RingEnqueue,
    /// Time a chunk sat in its session ring between enqueue and the
    /// worker popping it — the queueing component of service latency.
    RingWait,
    /// One session's full drain pass: encode + classify + postprocess
    /// of every frame drained.
    Drain,
    /// Publishing a pass's outputs: outbox append + service-bus fan-out.
    Publish,
    /// Adaptation engine: absorb + re-threshold + registry publish +
    /// swap staging, per feedback segment.
    AdaptRetrain,
    /// Feedback→hot-swap propagation: from feedback submission to the
    /// moment a session's worker applied the staged swap at its frame
    /// boundary.
    AdaptPropagate,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::WireDecode,
        Stage::RingEnqueue,
        Stage::RingWait,
        Stage::Drain,
        Stage::Publish,
        Stage::AdaptRetrain,
        Stage::AdaptPropagate,
    ];

    /// Stable machine-readable name: the `stage` label of the
    /// Prometheus exposition and the name of a trace span.
    pub fn name(self) -> &'static str {
        match self {
            Stage::WireDecode => "wire_decode",
            Stage::RingEnqueue => "ring_enqueue",
            Stage::RingWait => "ring_wait",
            Stage::Drain => "drain",
            Stage::Publish => "publish",
            Stage::AdaptRetrain => "adapt_retrain",
            Stage::AdaptPropagate => "adapt_propagate",
        }
    }
}

/// One latency histogram per [`Stage`], behind a single enabled flag.
///
/// Samples are recorded by [`crate::Clock::close`], which measures them;
/// with timing off the histograms stay empty and nothing reads the clock.
pub struct StageSet {
    enabled: bool,
    stages: [Histogram; Stage::ALL.len()],
}

impl StageSet {
    /// Builds the per-stage histograms (inert when `config.enabled` is
    /// false).
    pub(crate) fn new(config: &TelemetryConfig) -> Self {
        StageSet {
            enabled: config.enabled,
            stages: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Whether stage timing is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one measured interval, in microseconds.
    #[inline]
    pub(crate) fn record(&self, stage: Stage, micros: u64) {
        if self.enabled {
            self.stages[stage as usize].record(micros);
        }
    }

    /// Point-in-time snapshot of every stage histogram.
    pub fn snapshot(&self) -> StagesSnapshot {
        StagesSnapshot {
            enabled: self.enabled,
            stages: std::array::from_fn(|i| self.stages[i].snapshot()),
        }
    }
}

impl std::fmt::Debug for StageSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageSet")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

/// Owned snapshot of a [`StageSet`]: one [`HistogramSnapshot`] per
/// [`Stage`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StagesSnapshot {
    /// Whether the source set had timing enabled (all-empty histograms
    /// when false).
    pub enabled: bool,
    stages: [HistogramSnapshot; Stage::ALL.len()],
}

impl StagesSnapshot {
    /// A snapshot holding `histograms` for their stages and empty
    /// histograms for every other stage — for fixtures and tests.
    pub fn from_histograms(
        enabled: bool,
        histograms: impl IntoIterator<Item = (Stage, HistogramSnapshot)>,
    ) -> Self {
        let mut snapshot = StagesSnapshot {
            enabled,
            ..Default::default()
        };
        for (stage, histogram) in histograms {
            snapshot.stages[stage as usize] = histogram;
        }
        snapshot
    }

    /// The histogram snapshot of one stage.
    pub fn get(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage as usize]
    }

    /// Iterates `(stage, histogram)` pairs in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, &HistogramSnapshot)> {
        Stage::ALL.iter().map(move |&s| (s, self.get(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_set_records() {
        let set = StageSet::new(&TelemetryConfig::default());
        set.record(Stage::Drain, 1500);
        let snapshot = set.snapshot();
        assert!(snapshot.enabled);
        assert_eq!(snapshot.get(Stage::Drain).count, 1);
        assert_eq!(snapshot.get(Stage::Drain).max, 1500);
        assert_eq!(snapshot.get(Stage::Publish).count, 0);
    }

    #[test]
    fn disabled_set_is_inert() {
        let set = StageSet::new(&TelemetryConfig::disabled());
        set.record(Stage::Drain, 999);
        let snapshot = set.snapshot();
        assert!(!snapshot.enabled);
        assert!(snapshot.iter().all(|(_, h)| h.is_empty()));
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }
}
