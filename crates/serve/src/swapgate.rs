//! Barrier-gated single-slot staging cell — the hot-swap handoff
//! protocol, extracted so it can be model-checked in isolation.
//!
//! A [`SwapGate`] carries at most one staged value from a *requester*
//! thread (the adaptation engine staging a new model) to an *applier*
//! thread (the shard worker draining the session), with an application
//! barrier: `take_due(processed)` releases the value only once the
//! applier's progress counter has reached the barrier recorded at
//! staging time. Restaging before the value is taken replaces it
//! (latest-wins), which is exactly the semantics a model hot-swap wants:
//! an unapplied older model is obsolete the moment a newer one exists.
//!
//! A taken value stays *pending* until the applier calls
//! [`SwapGate::settle`], which it does only once the swap's effects
//! (the `ModelSwapped` marker in the session outbox) are published. A
//! flusher that waits while [`SwapGate::is_pending`] therefore never
//! returns between the take and the publish.
//!
//! The invariants the model suite (`tests/model.rs`) checks: for any
//! interleaving of one `stage` and a draining applier, the value is
//! applied **exactly once**, and never before the applier has processed
//! `barrier` frames; and a flusher that sees the gate settled also sees
//! what the applier published before settling. Uses the `laelaps_check`
//! facade mutex, so the check runs against the same code the service
//! ships.

use laelaps_check::sync::Mutex;

/// A staged value plus the progress bar it must wait for.
#[derive(Debug)]
struct Staged<T> {
    value: T,
    barrier: u64,
}

/// The gate's state: the staged value, if any, and whether a taken
/// value still awaits [`SwapGate::settle`].
#[derive(Debug)]
struct Slot<T> {
    staged: Option<Staged<T>>,
    taken: bool,
}

/// Single-slot, latest-wins staging cell gated on a progress barrier.
///
/// See the module docs for the protocol; [`crate::session`] uses it to
/// stage model hot-swaps at frame boundaries.
#[derive(Debug)]
pub struct SwapGate<T> {
    slot: Mutex<Slot<T>>,
}

impl<T> SwapGate<T> {
    /// Creates an empty gate.
    pub const fn new() -> Self {
        SwapGate {
            slot: Mutex::new(Slot {
                staged: None,
                taken: false,
            }),
        }
    }

    /// Stages `value` for release once the applier's progress counter
    /// reaches `barrier`. Replaces any value staged earlier (latest
    /// wins), including while an earlier value is taken but unsettled.
    pub fn stage(&self, value: T, barrier: u64) {
        self.slot.lock().expect("swap gate poisoned").staged = Some(Staged { value, barrier });
    }

    /// Takes the staged value if the applier has progressed to (or past)
    /// its barrier; `None` if nothing is staged or the barrier is still
    /// ahead. At most one `take_due` ever returns a given staged value.
    /// The gate stays pending until [`SwapGate::settle`].
    pub fn take_due(&self, processed: u64) -> Option<T> {
        let mut slot = self.slot.lock().expect("swap gate poisoned");
        if slot.staged.as_ref().is_some_and(|s| processed >= s.barrier) {
            slot.taken = true;
            slot.staged.take().map(|s| s.value)
        } else {
            None
        }
    }

    /// Ends the pending state of the values taken so far: the applier
    /// calls it once their effects are published. A value staged since
    /// stays pending.
    pub fn settle(&self) {
        self.slot.lock().expect("swap gate poisoned").taken = false;
    }

    /// Whether a value is staged, or taken but not yet settled.
    pub fn is_pending(&self) -> bool {
        let slot = self.slot.lock().expect("swap gate poisoned");
        slot.staged.is_some() || slot.taken
    }

    /// Discards any staged value and ends the taken state (e.g. the
    /// session failed and can never apply or publish it), returning the
    /// staged value for inspection.
    pub fn clear(&self) -> Option<T> {
        let mut slot = self.slot.lock().expect("swap gate poisoned");
        slot.taken = false;
        slot.staged.take().map(|s| s.value)
    }
}

impl<T> Default for SwapGate<T> {
    fn default() -> Self {
        SwapGate::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_holds_until_barrier() {
        let gate = SwapGate::new();
        gate.stage("model-a", 10);
        assert!(gate.is_pending());
        assert_eq!(gate.take_due(9), None, "barrier not reached");
        assert!(gate.is_pending(), "early poll must not consume");
        assert_eq!(gate.take_due(10), Some("model-a"));
        gate.settle();
        assert!(!gate.is_pending());
        assert_eq!(gate.take_due(u64::MAX), None, "applied exactly once");
    }

    #[test]
    fn restaging_replaces_latest_wins() {
        let gate = SwapGate::new();
        gate.stage(1u32, 5);
        gate.stage(2u32, 7);
        assert_eq!(gate.take_due(6), None, "new barrier governs");
        assert_eq!(gate.take_due(7), Some(2), "newest value wins");
        assert_eq!(gate.take_due(7), None);
    }

    #[test]
    fn a_taken_value_stays_pending_until_settled() {
        let gate = SwapGate::new();
        gate.stage(1u32, 0);
        assert_eq!(gate.take_due(0), Some(1));
        assert!(gate.is_pending(), "taken but not yet published");
        assert_eq!(
            gate.take_due(0),
            None,
            "a taken value is not handed out twice"
        );
        gate.stage(2u32, 5);
        gate.settle();
        assert!(
            gate.is_pending(),
            "a value restaged while taken stays staged"
        );
        assert_eq!(gate.take_due(5), Some(2), "latest wins");
        assert_eq!(gate.clear(), None);
        assert!(!gate.is_pending(), "clear ends the taken state");
    }

    #[test]
    fn clear_discards_and_returns() {
        let gate = SwapGate::new();
        assert_eq!(gate.clear(), None);
        gate.stage(42u32, 0);
        assert_eq!(gate.clear(), Some(42));
        assert!(!gate.is_pending());
    }
}
