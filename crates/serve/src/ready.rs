//! Per-shard ready queues: a shard worker drains only the sessions that
//! have work, and whoever gives a session work wakes only the worker that
//! owns it.
//!
//! Every session carries a [`ReadyFlag`]; every shard owns a
//! [`ReadyQueue`]. The protocol has two halves:
//!
//! * **schedule** — called by whoever made work visible for an item (a
//!   ring push, a close, a staged hot-swap, an unwedge), *after* making
//!   it visible: `scheduled.swap(true, AcqRel)`. Only the false→true edge
//!   pushes the item onto the queue, and [`ReadyQueue::schedule`] then
//!   returns `true` so the caller wakes the shard's worker. Scheduling an
//!   item that is already queued costs one atomic swap and wakes nobody.
//! * **pass** — the shard worker takes the whole queue (swapping in a
//!   spare `Vec`, so a steady pass allocates nothing) and, for each item,
//!   clears its flag with `swap(false, AcqRel)` *before* draining it. An
//!   item whose drain stopped at a per-pass cap goes back on the queue.
//!
//! Invariant: work made visible before a schedule call is drained by a
//! pass that starts after it. Either the schedule's swap wins the flag's
//! false→true edge and queues the item, or it finds the flag set — and
//! then the pass that will clear it has not cleared it yet, so that
//! clear's `Acquire` half sees the work before the drain looks. Clearing
//! after the drain instead, or with a plain store (which acquires
//! nothing), loses work; both mutations are written out in
//! `tests/model.rs`, and `CONCURRENCY.md` gives the full argument.
//!
//! Written against the `laelaps_check` facade, so the model suite
//! explores the protocol across interleavings.

use laelaps_check::sync::atomic::{AtomicBool, Ordering};
use laelaps_check::sync::{Arc, Mutex};

/// The per-item half of the protocol: set from the moment an item is
/// scheduled until the pass that drains it clears it.
#[derive(Debug, Default)]
pub struct ReadyFlag {
    scheduled: AtomicBool,
}

impl ReadyFlag {
    /// A cleared flag (the item is not queued).
    pub const fn new() -> Self {
        ReadyFlag {
            scheduled: AtomicBool::new(false),
        }
    }
}

/// An item a [`ReadyQueue`] can schedule: anything that carries a
/// [`ReadyFlag`].
pub trait Schedulable {
    /// The item's flag.
    fn ready_flag(&self) -> &ReadyFlag;
}

/// What draining one item did, as reported to [`ReadyQueue::pass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drained {
    /// Nothing to do.
    Idle,
    /// Did work and ran out of it.
    Worked,
    /// Did work and stopped at a per-pass cap, possibly with work left:
    /// the pass puts the item back on the queue.
    Backlog,
}

/// One shard's queue of items that have work.
#[derive(Debug)]
pub struct ReadyQueue<T> {
    queue: Mutex<Vec<Arc<T>>>,
    /// The worker's side of the swap: the previous pass's emptied `Vec`,
    /// kept for its capacity. Locked only by the shard's worker.
    spare: Mutex<Vec<Arc<T>>>,
}

impl<T> Default for ReadyQueue<T> {
    fn default() -> Self {
        ReadyQueue {
            queue: Mutex::new(Vec::new()),
            spare: Mutex::new(Vec::new()),
        }
    }
}

impl<T: Schedulable> ReadyQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `item`. Call *after* making its work visible. Returns
    /// `true` if this call queued the item; the caller must then wake the
    /// queue's worker. `false` means the item was already queued, and the
    /// pass that drains it will see the work.
    pub fn schedule(&self, item: &Arc<T>) -> bool {
        if item.ready_flag().scheduled.swap(true, Ordering::AcqRel) {
            return false;
        }
        self.queue
            .lock()
            .expect("ready queue poisoned")
            .push(Arc::clone(item));
        true
    }

    /// One worker pass: takes every queued item and runs `drain` on each,
    /// clearing the item's flag first; re-queues the items `drain`
    /// reports as [`Drained::Backlog`]. Returns `true` if any drain did
    /// work, in which case the caller must run another pass before it
    /// parks (a re-queued item wakes nobody).
    ///
    /// Only the queue's one worker may call this.
    pub fn pass(&self, mut drain: impl FnMut(&Arc<T>) -> Drained) -> bool {
        let mut batch = self.spare.lock().expect("ready queue poisoned");
        std::mem::swap(
            &mut *self.queue.lock().expect("ready queue poisoned"),
            &mut *batch,
        );
        let mut worked = false;
        for item in batch.drain(..) {
            // Clear before draining: work made visible after this swap
            // re-queues the item, and work made visible before it is
            // seen by the drain below.
            item.ready_flag().scheduled.swap(false, Ordering::AcqRel);
            match drain(&item) {
                Drained::Idle => {}
                Drained::Worked => worked = true,
                Drained::Backlog => {
                    worked = true;
                    self.schedule(&item);
                }
            }
        }
        worked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[derive(Default)]
    struct Item {
        flag: ReadyFlag,
        drains: AtomicUsize,
    }

    impl Schedulable for Item {
        fn ready_flag(&self) -> &ReadyFlag {
            &self.flag
        }
    }

    #[test]
    fn only_the_first_schedule_queues_an_item() {
        let queue = ReadyQueue::new();
        let item = Arc::new(Item::default());
        assert!(queue.schedule(&item), "the false→true edge queues");
        assert!(!queue.schedule(&item), "a queued item is not queued twice");
        let mut seen = 0;
        assert!(queue.pass(|_| {
            seen += 1;
            Drained::Worked
        }));
        assert_eq!(seen, 1);
        assert!(!queue.pass(|_| unreachable!("the queue is empty")));
        assert!(queue.schedule(&item), "a drained item can be queued again");
    }

    #[test]
    fn a_backlogged_item_is_requeued_and_an_idle_one_is_not() {
        let queue = ReadyQueue::new();
        let (busy, idle) = (Arc::new(Item::default()), Arc::new(Item::default()));
        queue.schedule(&busy);
        queue.schedule(&idle);
        let drain = |item: &Arc<Item>| {
            let n = item
                .drains
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            match (Arc::ptr_eq(item, &busy), n) {
                (true, 0 | 1) => Drained::Backlog,
                (true, _) => Drained::Worked,
                (false, _) => Drained::Idle,
            }
        };
        assert!(queue.pass(drain));
        assert!(queue.pass(drain));
        assert!(queue.pass(drain));
        assert!(!queue.pass(drain), "nothing is left queued");
        let drains = |item: &Item| item.drains.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!((drains(&busy), drains(&idle)), (3, 1));
        // A re-queued item still holds its flag: scheduling it again while
        // it waits for the next pass wakes nobody.
        queue.schedule(&busy);
        assert!(queue.pass(|_| Drained::Backlog));
        assert!(!queue.schedule(&busy));
    }
}
