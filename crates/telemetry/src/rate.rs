//! Windowed event-rate meters.

use laelaps_check::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One slice of the sliding window: the epoch (slot-width-sized tick)
/// the counts belong to, plus the counts themselves.
#[derive(Debug, Default)]
struct Slot {
    epoch: AtomicU64,
    count: AtomicU64,
}

/// A lock-free sliding-window rate meter: [`RateMeter::record`]
/// attributes events to the time slice of an instant;
/// [`RateMeter::per_sec`] reports the event rate over the window trailing
/// an instant.
///
/// Instants are µs on the caller's epoch (a [`crate::Clock`]'s, whose
/// close already read the instant a recording belongs to), so the meter
/// reads no clock. The window is divided into slots that are lazily
/// recycled as time advances; recording is a couple of relaxed atomic
/// operations.
#[derive(Debug)]
pub struct RateMeter {
    slot_micros: u64,
    slots: Vec<Slot>,
}

impl RateMeter {
    /// A meter with a trailing window of `window`, tracked in `slots`
    /// slices (more slots = smoother decay; 8–16 is plenty).
    pub fn new(window: Duration, slots: usize) -> Self {
        let slots = slots.max(2);
        let slot_micros = (window.as_micros() as u64 / slots as u64).max(1);
        RateMeter {
            slot_micros,
            slots: (0..slots).map(|_| Slot::default()).collect(),
        }
    }

    /// A meter over a 5-second window in 10 slices — right for "current
    /// frames/sec" style service gauges.
    pub fn per_5s() -> Self {
        RateMeter::new(Duration::from_secs(5), 10)
    }

    fn slice(&self, now_us: u64) -> u64 {
        now_us / self.slot_micros
    }

    /// Attributes `n` events to the window slice of `now_us`.
    pub fn record(&self, now_us: u64, n: u64) {
        let epoch = self.slice(now_us);
        let slot = &self.slots[(epoch % self.slots.len() as u64) as usize];
        // Recycle a stale slot: the winner of the CAS zeroes the count.
        // A concurrent recorder that loses simply adds to the fresh
        // epoch; a reader meanwhile sees either the old or the new epoch
        // with matching-enough counts — rates are estimates, not ledgers.
        let seen = slot.epoch.load(Ordering::Relaxed);
        if seen != epoch
            && slot
                .epoch
                .compare_exchange(seen, epoch, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            slot.count.store(0, Ordering::Relaxed);
        }
        slot.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Events per second over the window trailing `now_us` (0.0 before
    /// anything was recorded).
    pub fn per_sec(&self, now_us: u64) -> f64 {
        let epoch = self.slice(now_us);
        let window_slots = self.slots.len() as u64;
        let mut events = 0u64;
        for slot in &self.slots {
            let slot_epoch = slot.epoch.load(Ordering::Relaxed);
            // Count slices still inside the trailing window, the current
            // (partial) slice included.
            if slot_epoch + window_slots > epoch {
                events += slot.count.load(Ordering::Relaxed);
            }
        }
        // Elapsed window: full span once the epoch is old enough, the
        // time since the epoch before that (so early rates aren't diluted
        // by the not-yet-existing past).
        let span_micros = (self.slot_micros * window_slots).min(now_us).max(1);
        events as f64 / (span_micros as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_reflects_recent_events() {
        let meter = RateMeter::new(Duration::from_millis(200), 4);
        for t in 0..10 {
            meter.record(1_000 + t, 100);
        }
        // 1000 events 10 ms after the epoch: the span so far is 10 ms.
        assert_eq!(meter.per_sec(10_000), 100_000.0);
        // Still inside the window 150 ms after the epoch.
        assert_eq!(meter.per_sec(150_000), 1000.0 / (150_000.0 / 1e6));
    }

    #[test]
    fn old_events_age_out() {
        let meter = RateMeter::new(Duration::from_millis(80), 4);
        meter.record(0, 1000);
        // The recording slice left the window; only recycling keeps the
        // counts, and those slices no longer qualify.
        assert_eq!(meter.per_sec(200_000), 0.0);
    }

    #[test]
    fn a_stale_slot_is_recycled() {
        let meter = RateMeter::new(Duration::from_millis(80), 4);
        meter.record(0, 1000);
        // 80 ms later the same slot serves a new slice, starting from 0.
        meter.record(80_000, 7);
        assert_eq!(meter.per_sec(80_000), 7.0 / (80_000.0 / 1e6));
    }
}
