//! The seqlocked slot: a version word plus `N` payload words, written
//! by whoever wins the slot's claim and read by anyone without locking.
//!
//! [`crate::FlightRecorder`] and [`crate::TopK`] are arrays of these
//! slots; this module holds the one copy of the protocol they share.
//!
//! # The protocol, without fences
//!
//! The `laelaps_check` facade deliberately exports no `fence`, so the
//! protocol is expressed entirely with per-operation orderings (which is
//! also what the model checker's vector-clock visibility models):
//!
//! * **Writer** ([`SeqSlot::write`]): claim the slot by CAS-ing its
//!   version from even `v` to odd `v + 1` (success ordering `Acquire`,
//!   so the payload stores below cannot be reordered above the claim);
//!   store each payload word with `Release`; publish with a `Release`
//!   store of `v + 2`. A slot already odd, or a lost CAS, means another
//!   writer holds the claim: the write returns `false` instead of
//!   waiting, and the caller counts the drop.
//! * **Reader** ([`SeqSlot::read`]): load the version with `Acquire`
//!   (`v1`; 0 ⇒ never written, odd ⇒ mid-write), load each payload word
//!   with `Acquire`, re-load the version (`v2`); accept only if
//!   `v1 == v2`. A rejected read is retried once and then given up.
//!
//! Why a torn read cannot be accepted: payload stores are `Release` and
//! payload loads are `Acquire`, so if any load observes a newer writer's
//! store, that writer's earlier odd version store happens-before the
//! load — the `v2` re-load then cannot observe a version older than the
//! odd claim, so `v1 != v2` and the read is rejected. If *no* load
//! observed a newer store, every word came from the write whose
//! `Release` publish `v1` synchronized with, and the read is consistent.
//!
//! The claim's `Acquire` also synchronizes with the previous writer's
//! publish, and the claim excludes every other writer, so a writer that
//! reads the current payload under its claim ([`Held::load`], what
//! [`crate::TopK`]'s read-modify-write update relies on) sees exactly
//! the last published write with plain `Relaxed` loads.

use laelaps_check::sync::atomic::{AtomicU64, Ordering};

/// One seqlocked slot of `N` payload words. The version is even while
/// the slot is stable, odd while a writer holds the claim, and 0 until
/// the first write publishes.
#[derive(Debug)]
pub(crate) struct SeqSlot<const N: usize> {
    ver: AtomicU64,
    words: [AtomicU64; N],
}

impl<const N: usize> SeqSlot<N> {
    /// A never-written slot.
    pub(crate) const fn new() -> Self {
        SeqSlot {
            ver: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; N],
        }
    }

    /// Claims the slot, replaces its payload with what `update` returns
    /// (given the payload the slot holds), and publishes. Wait-free:
    /// returns `false` without writing when another writer holds the
    /// claim (the caller counts the drop).
    pub(crate) fn write(&self, update: impl FnOnce(Held<'_, N>) -> [u64; N]) -> bool {
        let ver = self.ver.load(Ordering::Relaxed);
        if ver & 1 == 1
            || self
                .ver
                .compare_exchange(ver, ver + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return false;
        }
        for (cell, word) in self.words.iter().zip(update(Held(&self.words))) {
            cell.store(word, Ordering::Release);
        }
        self.ver.store(ver + 2, Ordering::Release);
        true
    }

    /// The published payload, or `None` when the slot was never written
    /// or stayed mid-write across two attempts. Never returns a mix of
    /// two writes.
    pub(crate) fn read(&self) -> Option<[u64; N]> {
        for _attempt in 0..2 {
            let v1 = self.ver.load(Ordering::Acquire);
            if v1 == 0 || v1 & 1 == 1 {
                continue;
            }
            let words = self
                .words
                .each_ref()
                .map(|cell| cell.load(Ordering::Acquire));
            if self.ver.load(Ordering::Acquire) == v1 {
                return Some(words);
            }
        }
        None
    }
}

/// The payload of a slot whose claim the caller holds, loaded only if
/// the update asks for it (a plain overwrite skips the loads).
pub(crate) struct Held<'a, const N: usize>(&'a [AtomicU64; N]);

impl<const N: usize> Held<'_, N> {
    /// The last published payload (all zeros before the first write).
    pub(crate) fn load(&self) -> [u64; N] {
        self.0.each_ref().map(|cell| cell.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_held_claim_turns_a_second_write_away() {
        let slot = SeqSlot::<2>::new();
        assert!(slot.write(|_| {
            // Mid-write: the slot is odd, so readers and writers back off.
            assert_eq!(slot.read(), None);
            assert!(!slot.write(|_| [9, 9]), "the claim is held");
            [4, 5]
        }));
        assert_eq!(slot.read(), Some([4, 5]));
    }
}
