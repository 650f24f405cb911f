//! Fixed-capacity heavy-hitter sketch (Space-Saving) over `u64` keys.
//!
//! [`TopK`] answers "which sessions are the worst offenders" without
//! per-session state: it keeps exactly `capacity` weighted slots, and
//! an [`add`](TopK::add) for a key that is not resident evicts the
//! *minimum-weight* slot, inheriting its weight as the classic
//! Space-Saving overestimate. Memory is `O(capacity)` forever — the
//! serving layer gives each shard one sketch per tracked dimension, so
//! per-session observability stays `O(shards × K)` no matter how many
//! sessions stream through.
//!
//! Guarantees (single updater, the production shape — one shard worker
//! owns each sketch):
//!
//! * conservation: the sum of resident weights equals the total weight
//!   ever added;
//! * no undercount: a resident key's weight ≥ its true added weight;
//! * bounded overcount: `weight - err ≤ true ≤ weight` — `err` is the
//!   evicted minimum inherited at (re-)insertion;
//! * coverage: any key whose true weight exceeds the current minimum
//!   resident weight *is* resident.
//!
//! The proptest oracle in `tests/properties.rs` checks all four against
//! a reference `BTreeMap` heavy hitter.
//!
//! ## Concurrency
//!
//! Each slot is a seqlocked `(key, weight, err)` triple (`crate::seqlock`
//! holds the protocol). [`add`](TopK::add) picks its target slot from a
//! lock-free read pass, then applies the Space-Saving transition *while
//! holding the slot's claim*, against the slot's current content — the
//! read pass may be stale, the update never is. A writer that loses the
//! claim *drops the update* (counted in [`dropped`](TopK::dropped)) —
//! the sketch is an observability aid, never a blocking dependency of
//! the hot path. A snapshot can lag, but it never observes a torn
//! triple, and a resident key's weight is monotonically non-decreasing
//! across snapshots. Model-checked in `tests/model.rs`
//! (`top_k_snapshot_never_observes_a_torn_entry`).

use laelaps_check::sync::atomic::{AtomicU64, Ordering};

use crate::seqlock::SeqSlot;

/// One resident `(key, weight, err)` triple from a [`TopK::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKEntry {
    /// The tracked key (a session id, in the serving layer).
    pub key: u64,
    /// Estimated total weight: never below the true added weight,
    /// above it by at most [`err`](TopKEntry::err).
    pub weight: u64,
    /// Overestimate inherited from the evicted minimum at insertion.
    pub err: u64,
}

impl TopKEntry {
    /// The guaranteed lower bound on the key's true weight.
    pub fn lower_bound(&self) -> u64 {
        self.weight.saturating_sub(self.err)
    }
}

/// Fixed-capacity Space-Saving heavy-hitter sketch. See the module
/// docs for the estimation guarantees and the concurrency contract.
#[derive(Debug)]
pub struct TopK {
    /// `[key, weight, err]` per slot; weight 0 marks a free slot.
    slots: Box<[SeqSlot<3>]>,
    /// Updates abandoned because another writer held the slot claim.
    dropped: AtomicU64,
}

impl TopK {
    /// A sketch tracking at most `capacity` keys (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TopK {
            slots: (0..capacity).map(|_| SeqSlot::new()).collect(),
            dropped: AtomicU64::new(0),
        }
    }

    /// The fixed slot count — the sketch never grows past it.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Updates abandoned to a claim collision (racing writers only —
    /// zero with the production single-writer-per-sketch shape).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Adds `weight` to `key`, evicting the minimum-weight resident if
    /// the sketch is full and `key` is not already resident. Zero
    /// weights are ignored, so an occupied slot always has weight ≥ 1.
    /// Wait-free: a lost claim race drops the update and returns.
    pub fn add(&self, key: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        // Read pass: find the key, or a free slot, or the minimum. A slot
        // the read cannot see (never written, or mid-write) counts as
        // free; the claim below settles what it really holds.
        let mut resident = None;
        let mut free = None;
        let mut min: Option<(usize, u64)> = None;
        for (idx, slot) in self.slots.iter().enumerate() {
            match slot.read() {
                Some([slot_key, slot_weight, _]) if slot_weight > 0 => {
                    if slot_key == key {
                        resident = Some(idx);
                        break;
                    }
                    if min.is_none_or(|(_, w)| slot_weight < w) {
                        min = Some((idx, slot_weight));
                    }
                }
                _ => {
                    free.get_or_insert(idx);
                }
            }
        }
        let target = resident.or(free).or(min.map(|(idx, _)| idx)).unwrap_or(0);

        // Space-Saving transition against what the slot holds under the
        // claim (the read pass above raced other writers and may be
        // stale).
        let landed = self.slots[target].write(|held| {
            let [cur_key, cur_weight, cur_err] = held.load();
            if cur_weight == 0 {
                // Free slot: plain insert.
                [key, weight, 0]
            } else if cur_key == key {
                // Resident: accumulate.
                [key, cur_weight.saturating_add(weight), cur_err]
            } else {
                // Evict: inherit the displaced weight as the overestimate.
                [key, cur_weight.saturating_add(weight), cur_weight]
            }
        });
        if !landed {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time view of the resident entries, heaviest first.
    /// Never blocks writers: a slot torn mid-update is retried once and
    /// then skipped, so the snapshot may lag but never tears.
    pub fn snapshot(&self) -> Vec<TopKEntry> {
        let mut out: Vec<TopKEntry> = self
            .slots
            .iter()
            .filter_map(SeqSlot::read)
            .filter(|&[_, weight, _]| weight > 0)
            .map(|[key, weight, err]| TopKEntry { key, weight, err })
            .collect();
        out.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.key.cmp(&b.key)));
        out
    }

    /// The current minimum resident weight, or 0 while a slot is still
    /// free — the eviction threshold and the absent-key weight bound.
    pub fn min_weight(&self) -> u64 {
        let snapshot = self.snapshot();
        if snapshot.len() < self.capacity() {
            return 0;
        }
        snapshot.last().map_or(0, |e| e.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_keys_accumulate() {
        let k = TopK::new(4);
        k.add(7, 10);
        k.add(7, 5);
        k.add(9, 1);
        let snap = k.snapshot();
        assert_eq!(
            snap[0],
            TopKEntry {
                key: 7,
                weight: 15,
                err: 0
            }
        );
        assert_eq!(
            snap[1],
            TopKEntry {
                key: 9,
                weight: 1,
                err: 0
            }
        );
    }

    #[test]
    fn eviction_inherits_the_minimum_as_err() {
        let k = TopK::new(2);
        k.add(1, 10);
        k.add(2, 3);
        // 3 is the min; key 4 displaces it and inherits weight 3.
        k.add(4, 5);
        let snap = k.snapshot();
        assert_eq!(snap.len(), 2, "capacity never grows");
        let four = snap.iter().find(|e| e.key == 4).expect("key 4 resident");
        assert_eq!(four.weight, 8);
        assert_eq!(four.err, 3);
        assert_eq!(four.lower_bound(), 5);
        // Conservation: resident weights sum to the total added.
        assert_eq!(snap.iter().map(|e| e.weight).sum::<u64>(), 18);
    }

    #[test]
    fn zero_weight_is_a_no_op() {
        let k = TopK::new(2);
        k.add(1, 0);
        assert!(k.snapshot().is_empty());
        assert_eq!(k.dropped(), 0);
    }

    #[test]
    fn heavy_hitters_survive_a_churning_tail() {
        // One heavy key plus a long tail of one-shot keys: the heavy
        // key must stay resident (its weight exceeds the minimum).
        let k = TopK::new(4);
        for round in 0..256u64 {
            k.add(1_000, 8);
            k.add(round, 1);
        }
        let snap = k.snapshot();
        let heavy = snap
            .iter()
            .find(|e| e.key == 1_000)
            .expect("heavy key resident");
        assert!(heavy.weight >= 256 * 8, "no undercount");
        assert!(snap.len() <= 4);
    }
}
