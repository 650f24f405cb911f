//! # laelaps-telemetry
//!
//! Allocation-free, lock-cheap observability primitives for the Laelaps
//! serving stack: atomic [`Counter`]s, log2-sub-bucketed latency
//! [`Histogram`]s with quantile estimation and exact merge, windowed
//! [`RateMeter`]s, one [`Clock`] that times named hot-path [`Stage`]s
//! into a [`StageSet`] of histograms, a per-chunk causal tracing layer
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
//! ## One clock, and the disabled fast path
//!
//! The [`Clock`] holds the one epoch that stage histograms, trace spans
//! and rate meters are measured on. An interval opens with a [`Mark`]
//! ([`Clock::mark`], or [`Clock::begin`] for a new, possibly traced,
//! item) and ends with one [`Clock::close`]: one clock read (~20–50 ns)
//! that records the stage's histogram sample when timing is on and the
//! span when the mark is traced; the mark it returns opens the next
//! stage at that instant. A mark holds an instant only when closing it
//! records something, so with timing ([`TelemetryConfig::disabled`]) and
//! tracing off nothing reads the clock: *off = a few atomics* on the
//! counters that remain. Callers write the same code either way:
//!
//! ```
//! use laelaps_telemetry::{Clock, SpanContext, Stage, TelemetryConfig, TraceConfig};
//!
//! for timing in [TelemetryConfig::default(), TelemetryConfig::disabled()] {
//!     let clock = Clock::new(&timing, &TraceConfig::default());
//!     let mark = clock.begin(); // tracing is off: no trace is minted
//!     // ... do the work ...
//!     clock.close(Stage::Drain, mark, SpanContext::default());
//!     let samples = clock.stages.snapshot().get(Stage::Drain).count;
//!     assert_eq!(samples, u64::from(timing.enabled));
//! }
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
mod clock;
mod hist;
mod rate;
mod recorder;
mod seqlock;
mod stage;
mod topk;
mod trace;

pub use cell::SessionCell;
pub use clock::{Clock, Mark};
pub use hist::{Histogram, HistogramSnapshot};
pub use rate::RateMeter;
pub use recorder::{FlightRecorder, RecorderEntry, RECORD_WORDS};
pub use stage::{Stage, StageSet, StagesSnapshot};
pub use topk::{TopK, TopKEntry};
pub use trace::{
    PinReason, PinnedTrace, SpanContext, SpanRecord, TraceConfig, TraceId, TraceSnapshot,
    TraceStats, Tracer,
};

use laelaps_check::sync::atomic::{AtomicU64, Ordering};

/// Configuration of a telemetry surface (see [`Clock::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Whether stage timing is on. When `false`, untraced marks hold no
    /// instant and closing them reads no clock — the only residual cost
    /// of the instrumented code is its plain atomic counters.
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
