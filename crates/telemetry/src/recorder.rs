//! The flight recorder: a fixed-capacity, allocation-free,
//! overwrite-oldest ring of fixed-width records.
//!
//! Every completed trace span lands here (see [`crate::Tracer`]); a
//! reader takes a best-effort snapshot at export time. The write path is
//! wait-free — one `fetch_add` to claim a sequence number, whose low
//! bits pick the slot, plus one seqlocked slot write
//! (`crate::seqlock`, which holds the protocol and its orderings) — and
//! never blocks or allocates, so it is safe on the serving hot path.
//! A writer that collides with a slot still mid-write (only possible
//! when the ring laps itself within one write) *drops its record* and
//! counts the drop instead of waiting.

use laelaps_check::sync::atomic::{AtomicU64, Ordering};

use crate::seqlock::SeqSlot;

/// Payload words per record. The tracer packs one completed span into
/// this many `u64`s (see `crate::trace` for the layout).
pub const RECORD_WORDS: usize = 5;

/// Words per slot: the record's sequence number, then its payload.
const SLOT_WORDS: usize = 1 + RECORD_WORDS;

/// One decoded recorder entry: the global sequence number the slot held
/// plus its payload words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderEntry {
    /// Monotonic write sequence (0-based); total order over all writes.
    pub seq: u64,
    /// The payload as written.
    pub words: [u64; RECORD_WORDS],
}

/// A fixed-capacity, overwrite-oldest, lock-free record ring.
///
/// Multiple concurrent writers are supported (slots are claimed by a
/// shared monotonic cursor); snapshots may run concurrently with writers
/// and only ever observe complete records.
pub struct FlightRecorder {
    slots: Box<[SeqSlot<SLOT_WORDS>]>,
    /// `slots.len() - 1`; slot count is a power of two so `seq & mask`
    /// indexes consistently.
    mask: u64,
    /// Monotonic claim counter: `fetch_add(1)` yields a unique sequence
    /// number whose low bits pick the slot.
    cursor: AtomicU64,
    /// Records dropped because their slot was still mid-write (ring
    /// lapped itself within one write).
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` records (rounded up
    /// to a power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let slots: Box<[SeqSlot<SLOT_WORDS>]> = (0..capacity.max(2).next_power_of_two())
            .map(|_| SeqSlot::new())
            .collect();
        let mask = slots.len() as u64 - 1;
        FlightRecorder {
            slots,
            mask,
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Slot count (the power-of-two the requested capacity rounded to).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever written (including ones since overwritten, and
    /// the claim of any record later dropped mid-collision).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records dropped to a slot collision (never blocks instead).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Writes one record, overwriting the oldest. Wait-free: a collision
    /// with a concurrent writer on the same slot (the ring lapped within
    /// one write) drops this record and bumps [`FlightRecorder::dropped`].
    pub fn write(&self, words: [u64; RECORD_WORDS]) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let mut slot_words = [seq; SLOT_WORDS];
        slot_words[1..].copy_from_slice(&words);
        if !self.slots[(seq & self.mask) as usize].write(|_| slot_words) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Best-effort snapshot of every stable record, oldest first (by
    /// sequence number). Allocates on the read side only. Slots mid-write
    /// are retried once and then skipped; concurrent writers may overwrite
    /// entries between slot reads, so the result is a consistent *sample*
    /// of the ring, never a torn record.
    pub fn snapshot(&self) -> Vec<RecorderEntry> {
        let mut out: Vec<RecorderEntry> = self
            .slots
            .iter()
            .filter_map(SeqSlot::read)
            .map(|slot_words| RecorderEntry {
                seq: slot_words[0],
                words: slot_words[1..].try_into().expect("RECORD_WORDS words"),
            })
            .collect();
        out.sort_unstable_by_key(|entry| entry.seq);
        out
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_come_back_in_write_order() {
        let rec = FlightRecorder::new(8);
        for i in 0..5u64 {
            rec.write([i, i * 10, 0, 0, 0]);
        }
        let entries = rec.snapshot();
        assert_eq!(entries.len(), 5);
        for (i, entry) in entries.iter().enumerate() {
            assert_eq!(entry.seq, i as u64);
            assert_eq!(entry.words[0], i as u64);
            assert_eq!(entry.words[1], i as u64 * 10);
        }
        assert_eq!(rec.recorded(), 5);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn wrap_keeps_the_most_recent_capacity_records() {
        let rec = FlightRecorder::new(4);
        for i in 0..11u64 {
            rec.write([i, 0, 0, 0, 0]);
        }
        let entries = rec.snapshot();
        assert_eq!(entries.len(), 4);
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10], "oldest overwritten first");
        assert_eq!(rec.recorded(), 11);
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(FlightRecorder::new(0).capacity(), 2);
        assert_eq!(FlightRecorder::new(5).capacity(), 8);
        assert_eq!(FlightRecorder::new(64).capacity(), 64);
    }

    #[test]
    fn empty_recorder_snapshots_empty() {
        assert!(FlightRecorder::new(16).snapshot().is_empty());
    }

    #[test]
    fn concurrent_writers_never_produce_torn_records() {
        // Stress (not model) variant of the no-torn-read invariant: each
        // writer writes records whose five words are all equal, so any
        // accepted mix of two writers is detectable.
        let rec = std::sync::Arc::new(FlightRecorder::new(8));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let rec = std::sync::Arc::clone(&rec);
                scope.spawn(move || {
                    for i in 0..2000u64 {
                        let v = t * 1_000_000 + i;
                        rec.write([v; RECORD_WORDS]);
                    }
                });
            }
            for _ in 0..200 {
                for entry in rec.snapshot() {
                    assert!(
                        entry.words.iter().all(|&w| w == entry.words[0]),
                        "torn record: {entry:?}"
                    );
                }
            }
        });
        let total = rec.recorded();
        assert_eq!(total, 8000);
        assert!(rec.dropped() <= total);
    }
}
