//! Named hot-path stages and the timers that attribute wall time to
//! them.

use std::time::Instant;

use crate::hist::{Histogram, HistogramSnapshot};
use crate::TelemetryConfig;

/// A hot-path stage of the serving pipeline, end to end: wire decode →
/// ring enqueue → ring wait → drain → outbox publish, plus the
/// adaptation loop's retrain and feedback→hot-swap propagation.
///
/// Each stage owns one latency [`Histogram`] (microseconds) in a
/// [`StageSet`]. [`Stage::Encode`], [`Stage::Classify`] and
/// [`Stage::Scatter`] are never recorded (the drain span covers encode,
/// classify and postprocess); they keep their discriminants because the
/// wire protocol carries stage numbers.
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
    /// Never recorded; reserved so the wire's stage numbers stay stable.
    Encode,
    /// Never recorded; reserved so the wire's stage numbers stay stable.
    Classify,
    /// Never recorded; reserved so the wire's stage numbers stay stable.
    Scatter,
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
    pub const ALL: [Stage; 10] = [
        Stage::WireDecode,
        Stage::RingEnqueue,
        Stage::RingWait,
        Stage::Drain,
        Stage::Encode,
        Stage::Classify,
        Stage::Scatter,
        Stage::Publish,
        Stage::AdaptRetrain,
        Stage::AdaptPropagate,
    ];

    /// Stable machine-readable name (used as the JSON key in
    /// `BENCH_serve.json`).
    pub fn name(self) -> &'static str {
        match self {
            Stage::WireDecode => "wire_decode",
            Stage::RingEnqueue => "ring_enqueue",
            Stage::RingWait => "ring_wait",
            Stage::Drain => "drain",
            Stage::Encode => "encode",
            Stage::Classify => "classify",
            Stage::Scatter => "scatter",
            Stage::Publish => "publish",
            Stage::AdaptRetrain => "adapt_retrain",
            Stage::AdaptPropagate => "adapt_propagate",
        }
    }
}

/// One latency histogram per [`Stage`], behind a single enabled flag.
///
/// The write-side API is built so instrumented code reads identically
/// whether telemetry is on or off, and costs nothing but the branch when
/// off (see [`TelemetryConfig`]).
pub struct StageSet {
    enabled: bool,
    stages: [Histogram; Stage::ALL.len()],
}

impl StageSet {
    /// Builds the per-stage histograms (or the no-op variant when
    /// `config.enabled` is false).
    pub fn new(config: &TelemetryConfig) -> Self {
        StageSet {
            enabled: config.enabled,
            stages: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Whether stage timing is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A running timer for `stage` — no-op (no clock read) when
    /// disabled. Drop it to discard the measurement, or
    /// [`StageTimer::commit`] it to record.
    #[inline]
    pub fn timer(&self, stage: Stage) -> StageTimer<'_> {
        StageTimer {
            inner: self.enabled.then(|| (self, stage, Instant::now())),
        }
    }

    /// The current instant, or `None` when disabled — for deferred spans
    /// whose start and end live on different threads (ring wait, swap
    /// propagation). Pair with [`StageSet::record_since`].
    #[inline]
    pub fn now(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Records the span from a [`StageSet::now`] origin to now. A `None`
    /// origin (telemetry was off at the start, or the span never
    /// started) records nothing.
    #[inline]
    pub fn record_since(&self, stage: Stage, origin: Option<Instant>) {
        if let Some(origin) = origin {
            if self.enabled {
                self.record_micros(stage, saturating_micros(origin.elapsed()));
            }
        }
    }

    /// Records an externally measured duration, in microseconds.
    #[inline]
    pub fn record_micros(&self, stage: Stage, micros: u64) {
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

fn saturating_micros(elapsed: std::time::Duration) -> u64 {
    elapsed.as_micros().min(u128::from(u64::MAX)) as u64
}

/// A running measurement of one stage, started by [`StageSet::timer`].
///
/// Call [`StageTimer::commit`] to record the elapsed microseconds into
/// the stage's histogram (and get the value back, e.g. to feed legacy
/// max-latency counters); drop the timer to measure nothing. When the
/// owning [`StageSet`] is disabled the timer is a true no-op: it holds
/// no clock reading and `commit` returns 0.
#[derive(Debug)]
#[must_use = "a dropped StageTimer records nothing"]
pub struct StageTimer<'a> {
    inner: Option<(&'a StageSet, Stage, Instant)>,
}

impl StageTimer<'_> {
    /// Records the elapsed time into the stage's histogram and returns
    /// it in microseconds (0 when telemetry is disabled).
    #[inline]
    pub fn commit(self) -> u64 {
        match self.inner {
            Some((set, stage, start)) => {
                let micros = saturating_micros(start.elapsed());
                set.record_micros(stage, micros);
                micros
            }
            None => 0,
        }
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
    fn enabled_timer_records() {
        let set = StageSet::new(&TelemetryConfig::default());
        let timer = set.timer(Stage::Drain);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let micros = timer.commit();
        assert!(micros >= 1000, "slept 2 ms, measured {micros} µs");
        let snapshot = set.snapshot();
        assert_eq!(snapshot.get(Stage::Drain).count, 1);
        assert!(snapshot.get(Stage::Drain).max >= 1000);
        assert_eq!(snapshot.get(Stage::Classify).count, 0);
    }

    #[test]
    fn disabled_set_is_inert() {
        let set = StageSet::new(&TelemetryConfig::disabled());
        assert!(set.now().is_none());
        let timer = set.timer(Stage::Encode);
        assert_eq!(timer.commit(), 0);
        set.record_micros(Stage::Encode, 999);
        set.record_since(Stage::RingWait, None);
        let snapshot = set.snapshot();
        assert!(!snapshot.enabled);
        assert!(snapshot.iter().all(|(_, h)| h.is_empty()));
    }

    #[test]
    fn dropped_timer_discards() {
        let set = StageSet::new(&TelemetryConfig::default());
        drop(set.timer(Stage::Publish));
        assert_eq!(set.snapshot().get(Stage::Publish).count, 0);
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }
}
