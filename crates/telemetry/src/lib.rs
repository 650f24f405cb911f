//! # laelaps-telemetry
//!
//! Allocation-free, lock-cheap observability primitives for the Laelaps
//! serving stack: atomic [`Counter`]s, log2-sub-bucketed latency
//! [`Histogram`]s with quantile estimation and exact merge, windowed
//! [`RateMeter`]s, a [`StageTimer`] API that attributes wall time to
//! named hot-path [`Stage`]s, a per-chunk causal tracing layer
//! ([`Tracer`]) backed by a wait-free [`FlightRecorder`] ring with
//! tail-based pinning of anomalous traces, and a per-session layer — a
//! compact [`SessionCell`] accounting cell plus a fixed-capacity
//! [`TopK`] heavy-hitter sketch — that keeps per-session observability
//! memory independent of the session count. The recorder and the sketch
//! are arrays of one seqlocked slot type (`seqlock`), so the lock-free
//! read/write protocol exists once.
//!
//! Every primitive is safe to hammer from many threads at once: all
//! mutation is `Relaxed` atomics, nothing blocks, and recording a sample
//! never allocates. Reading is done through point-in-time snapshots
//! ([`HistogramSnapshot`], [`StagesSnapshot`]) that are plain owned data —
//! cheap to clone, merge, and serialize.
//!
//! ## The disabled fast path
//!
//! Timing costs clock reads (two `Instant::now()` per measured span,
//! ~20–50 ns each). A [`StageSet`] built from a disabled
//! [`TelemetryConfig`] therefore hands out no-op [`StageTimer`]s that
//! never touch the clock or the histograms: *off = a few atomics* on the
//! counters that remain, nothing else. Callers write the same
//! straight-line code either way:
//!
//! ```
//! use laelaps_telemetry::{Stage, StageSet, TelemetryConfig};
//!
//! let stages = StageSet::new(&TelemetryConfig::default());
//! let timer = stages.timer(Stage::Drain); // no-op if disabled
//! // ... do the work ...
//! let micros = timer.commit();            // records + returns elapsed
//! assert!(stages.snapshot().get(Stage::Drain).count >= 1);
//! # let _ = micros;
//! ```
//!
//! ## Histogram layout
//!
//! [`Histogram`] buckets are log2 octaves split into 16 linear
//! sub-buckets (values below 16 are exact), so any recorded value lands
//! in a bucket whose width is at most 1/16 of its lower bound: quantile
//! estimates carry a guaranteed **≤ 6.25 % relative error** (they are
//! also never below the true value — estimates use the bucket's upper
//! edge, clamped to the exact observed maximum). Merging histograms adds
//! bucket counts and is therefore exact and associative — per-shard or
//! per-node histograms can be folded in any order without drift. Both
//! properties are enforced by proptests in `tests/properties.rs`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

mod cell;
mod hist;
mod rate;
mod recorder;
mod seqlock;
mod stage;
mod topk;
mod trace;

pub use cell::SessionCell;
pub use hist::{Histogram, HistogramSnapshot};
pub use rate::RateMeter;
pub use recorder::{FlightRecorder, RecorderEntry, RECORD_WORDS};
pub use stage::{Stage, StageSet, StageTimer, StagesSnapshot};
pub use topk::{TopK, TopKEntry};
pub use trace::{
    PinReason, PinnedTrace, SpanContext, SpanRecord, TraceConfig, TraceHandle, TraceId,
    TraceSnapshot, Tracer,
};

use laelaps_check::sync::atomic::{AtomicU64, Ordering};

/// Configuration of a telemetry surface (see [`StageSet::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Whether stage timing is on. When `false`, [`StageSet::timer`]
    /// returns no-op timers that never read the clock, and
    /// [`StageSet::now`] returns `None` — the only residual cost of the
    /// instrumented code is its plain atomic counters.
    pub enabled: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { enabled: true }
    }
}

impl TelemetryConfig {
    /// A configuration with stage timing disabled.
    pub fn disabled() -> Self {
        TelemetryConfig { enabled: false }
    }
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }
}
