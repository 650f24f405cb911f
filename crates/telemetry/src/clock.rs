//! One epoch and one way to time an interval: a [`Mark`] opens it, one
//! [`Clock::close`] ends it and records both its stage-histogram sample
//! and its trace span.

use std::time::Instant;

use crate::rate::RateMeter;
use crate::stage::{Stage, StageSet};
use crate::trace::{SpanContext, TraceConfig, TraceId, Tracer};
use crate::TelemetryConfig;

/// Where one timed interval started, on its [`Clock`]'s epoch, and the
/// trace it belongs to. It holds a start only when closing it will
/// record something (stage timing is on, or it is traced); otherwise no
/// clock was read to make it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mark {
    /// µs since the clock's epoch; `None` when nothing will be recorded.
    start_us: Option<u64>,
    /// The trace whose span closing this mark records.
    trace: Option<TraceId>,
    /// Whether closing this mark records a stage-histogram sample.
    timed: bool,
}

impl Mark {
    /// The trace this interval belongs to, if it is traced.
    #[inline]
    pub fn trace(self) -> Option<TraceId> {
        self.trace
    }

    /// The same interval, recording only its span when closed.
    #[must_use]
    #[inline]
    pub fn span_only(self) -> Mark {
        Mark {
            timed: false,
            ..self
        }
    }

    /// The same interval, recording only its histogram sample when
    /// closed.
    #[must_use]
    pub fn untraced(self) -> Mark {
        Mark {
            trace: None,
            ..self
        }
    }

    /// The same start, as a span-only mark of another trace.
    #[must_use]
    pub fn span_of(self, trace: TraceId) -> Mark {
        Mark {
            trace: Some(trace),
            timed: false,
            ..self
        }
    }

    /// Microseconds from `earlier` to this mark, or 0 when either holds
    /// no instant.
    pub fn micros_since(self, earlier: Mark) -> u64 {
        let span = self.start_us.zip(earlier.start_us);
        span.map_or(0, |(end, start)| end.saturating_sub(start))
    }

    /// This mark's instant in µs since the epoch, if it holds one.
    pub fn at_us(self) -> Option<u64> {
        self.start_us
    }
}

/// The one clock of a telemetry surface: the epoch every instant is
/// measured from, the per-stage histograms and the causal tracer.
///
/// Timing goes through marks. [`Clock::mark`] or [`Clock::begin`] opens
/// an interval; [`Clock::close`] reads the clock once and records the
/// interval's histogram sample (when stage timing is on) and its span
/// with the slow-stage pin (when the mark is traced). The mark it returns
/// opens the next interval at the same instant, and [`Clock::close_at`]
/// ends an interval at an instant already read, so a boundary between
/// stages is read once. With timing and tracing both off, marks are empty
/// and nothing reads the clock.
#[derive(Debug)]
pub struct Clock {
    /// Every instant is µs since this one.
    epoch: Instant,
    /// The per-stage histograms.
    pub stages: StageSet,
    /// The causal tracer (pins and snapshots).
    pub tracer: Tracer,
}

impl Clock {
    /// A clock with stage timing per `timing` and tracing per `trace`.
    pub fn new(timing: &TelemetryConfig, trace: &TraceConfig) -> Self {
        Clock {
            epoch: Instant::now(),
            stages: StageSet::new(timing),
            tracer: Tracer::new(trace),
        }
    }

    /// Microseconds since the epoch. **Reads the clock**; every read goes
    /// through a mark, a close or [`Clock::per_sec`].
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// `meter`'s event rate over the window trailing now. **Reads the
    /// clock**: a snapshot reader's call, never a recording path's.
    pub fn per_sec(&self, meter: &RateMeter) -> f64 {
        meter.per_sec(self.now_us())
    }

    /// Opens an interval now, traced by `trace`. It reads the clock only
    /// when stage timing is on or the interval is traced.
    #[inline]
    pub fn mark(&self, trace: Option<TraceId>) -> Mark {
        let timed = self.stages.enabled();
        Mark {
            start_us: (timed || trace.is_some()).then(|| self.now_us()),
            trace,
            timed,
        }
    }

    /// Opens the first interval of a new item: mints its trace id when
    /// tracing is on and the item is sampled, then marks.
    #[inline]
    pub fn begin(&self) -> Mark {
        self.mark(self.tracer.mint())
    }

    /// Closes `mark` as one `stage` interval: reads the clock once, and
    /// only when the mark records anything (see [`Clock::close_at`]).
    #[inline]
    pub fn close(&self, stage: Stage, mark: Mark, ctx: SpanContext) -> Mark {
        self.close_at(stage, mark, Mark::default(), ctx)
    }

    /// Closes `mark` as one `stage` interval ending at `end`, an instant an
    /// earlier close or mark read, or now when `end` holds none: records
    /// the histogram sample when the mark is timed and the span (which
    /// pins the trace when it reaches the slow-stage threshold) when it is
    /// traced. Reads the clock only for a recording mark and an empty
    /// `end`. Returns the mark of the next interval of the same trace,
    /// opening at the end instant.
    #[inline]
    pub fn close_at(&self, stage: Stage, mark: Mark, end: Mark, ctx: SpanContext) -> Mark {
        let Some(start) = mark.start_us.filter(|_| mark.timed || mark.trace.is_some()) else {
            return Mark {
                start_us: None,
                ..mark
            };
        };
        let end = end.start_us.unwrap_or_else(|| self.now_us());
        let dur = end.saturating_sub(start);
        if mark.timed {
            self.stages.record(stage, dur);
        }
        if let Some(id) = mark.trace {
            self.tracer.record(id, stage, ctx, start, dur);
        }
        Mark {
            start_us: Some(end),
            ..mark
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PinReason;
    use std::time::Duration;

    fn ctx() -> SpanContext {
        SpanContext {
            session: 9,
            shard: 1,
            generation: 2,
        }
    }

    fn clock(timing: bool, tracing: bool) -> Clock {
        Clock::new(
            &TelemetryConfig { enabled: timing },
            &TraceConfig {
                enabled: tracing,
                ..TraceConfig::default()
            },
        )
    }

    #[test]
    fn close_records_the_histogram_and_the_span_of_one_interval() {
        let clock = clock(true, true);
        let mark = clock.begin();
        std::thread::sleep(Duration::from_millis(2));
        let next = clock.close(Stage::Drain, mark, ctx());
        let micros = next.micros_since(mark);
        assert!(micros >= 1000, "slept 2 ms, measured {micros} µs");
        let hist = clock.stages.snapshot();
        assert_eq!(hist.get(Stage::Drain).count, 1);
        assert_eq!(hist.get(Stage::Drain).max, micros);
        let spans = clock.tracer.snapshot().spans;
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].trace_id, mark.trace().unwrap().get());
        assert_eq!(Some(spans[0].start_us), mark.at_us());
        assert_eq!(spans[0].dur_us, micros, "one read feeds both records");
        assert_eq!((spans[0].session, spans[0].shard), (9, 1));
        // The next interval opens where this one closed, on the same trace.
        assert_eq!(next.trace(), mark.trace());
        assert_eq!(next.at_us(), Some(mark.at_us().unwrap() + micros));
    }

    #[test]
    fn everything_off_reads_no_clock_and_records_nothing() {
        let clock = clock(false, false);
        let mark = clock.begin();
        assert_eq!(mark, Mark::default(), "no trace, no instant");
        let next = clock.close(Stage::RingWait, mark, ctx());
        assert_eq!(next, Mark::default());
        assert!(clock.stages.snapshot().iter().all(|(_, h)| h.is_empty()));
        assert_eq!(clock.tracer.snapshot().minted, 0);
    }

    #[test]
    fn timing_alone_records_histograms_and_no_spans() {
        let clock = clock(true, false);
        let mark = clock.begin();
        assert!(mark.trace().is_none() && mark.at_us().is_some());
        clock.close(Stage::Publish, mark, ctx());
        assert_eq!(clock.stages.snapshot().get(Stage::Publish).count, 1);
        assert!(clock.tracer.snapshot().spans.is_empty());
        // An untraced span-only mark records nothing and reads nothing.
        let quiet = clock.close(Stage::Drain, mark.span_only(), ctx());
        assert_eq!(quiet.at_us(), None);
        assert_eq!(clock.stages.snapshot().get(Stage::Drain).count, 0);
    }

    #[test]
    fn tracing_alone_records_spans_and_no_histograms() {
        let clock = clock(false, true);
        let mark = clock.begin();
        assert!(mark.trace().is_some() && mark.at_us().is_some());
        let next = clock.close(Stage::RingWait, mark, ctx());
        clock.close(Stage::Drain, next, ctx());
        assert!(clock.stages.snapshot().iter().all(|(_, h)| h.is_empty()));
        let spans = clock.tracer.snapshot().spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start_us + spans[0].dur_us, spans[1].start_us);
        // An untimed, untraced mark is empty: nothing to read the clock for.
        assert_eq!(clock.mark(None), Mark::default());
    }

    #[test]
    fn span_only_and_untraced_split_one_interval() {
        let clock = clock(true, true);
        let mark = clock.begin();
        let end = clock.close(Stage::RingWait, mark.span_only(), ctx());
        clock.close_at(Stage::RingEnqueue, mark.untraced(), end, ctx());
        clock.close_at(
            Stage::Publish,
            mark.span_of(TraceId::from_raw(77).unwrap()),
            end,
            ctx(),
        );
        let hist = clock.stages.snapshot();
        assert_eq!(hist.get(Stage::RingWait).count, 0);
        assert_eq!(hist.get(Stage::RingEnqueue).count, 1);
        assert_eq!(hist.get(Stage::Publish).count, 0);
        let spans = clock.tracer.snapshot().spans;
        let stages: Vec<_> = spans.iter().map(|s| (s.stage, s.trace_id)).collect();
        let id = mark.trace().unwrap().get();
        assert_eq!(stages, [(Stage::RingWait, id), (Stage::Publish, 77)]);
        assert_eq!(spans[0].dur_us, spans[1].dur_us, "one interval, two traces");
    }

    #[test]
    fn a_zero_length_record_needs_no_read() {
        let clock = clock(false, true);
        let mark = clock.begin();
        clock.close_at(Stage::RingEnqueue, mark, mark, ctx());
        let spans = clock.tracer.snapshot().spans;
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].dur_us, 0);
        assert_eq!(Some(spans[0].start_us), mark.at_us());
    }

    #[test]
    fn slow_intervals_pin_their_trace() {
        let clock = Clock::new(
            &TelemetryConfig::disabled(),
            &TraceConfig {
                enabled: true,
                pin_threshold_us: 1000,
                ..TraceConfig::default()
            },
        );
        let fast = clock.begin();
        let slow = clock.begin();
        clock.close_at(Stage::Drain, fast, fast, ctx());
        std::thread::sleep(Duration::from_millis(2));
        clock.close(Stage::Drain, slow, ctx());
        let snapshot = clock.tracer.snapshot();
        assert_eq!(snapshot.pin_reason(fast.trace().unwrap().get()), None);
        assert_eq!(
            snapshot.pin_reason(slow.trace().unwrap().get()),
            Some(PinReason::SlowStage)
        );
    }
}
