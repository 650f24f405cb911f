//! Model-checked concurrency tests for the serve hot path: the SPSC
//! [`laelaps_serve::ring`], the [`laelaps_serve::swapgate::SwapGate`]
//! hot-swap protocol and the flush wait built on it, and the
//! [`laelaps_serve::ready`] queue that wakes shard workers, explored
//! across thread interleavings by `laelaps-check`.
//!
//! Compiled (and meaningful) only under `RUSTFLAGS="--cfg laelaps_check"`;
//! in normal builds this file is empty. A reported failure prints a
//! replay seed — see `CONCURRENCY.md` for how to replay it.
#![cfg(laelaps_check)]

use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
use std::sync::Arc;

use laelaps_check::sync::atomic::{AtomicBool, Ordering};
use laelaps_check::sync::{Condvar, Mutex};
use laelaps_check::{thread, Checker};
use laelaps_eval::pool::ShardedPool;
use laelaps_serve::ready::{Drained, ReadyFlag, ReadyQueue, Schedulable};
use laelaps_serve::ring::{ring, ring_at, Consumer};
use laelaps_serve::swapgate::SwapGate;

fn quick() -> Checker {
    Checker::new().dfs_budget(800).random_iters(60)
}

/// A value with observable drop effects, for double-drop / leak
/// detection across the ring handoff.
#[derive(Debug)]
struct Token {
    drops: Arc<StdAtomicUsize>,
    payload: Box<u64>,
}

impl Token {
    fn new(drops: &Arc<StdAtomicUsize>, value: u64) -> Self {
        Token {
            drops: Arc::clone(drops),
            payload: Box::new(value),
        }
    }
}

impl Drop for Token {
    fn drop(&mut self) {
        self.drops.fetch_add(1, StdOrdering::Relaxed);
    }
}

#[test]
fn ring_concurrent_push_pop_is_fifo_and_race_free() {
    quick().check(|| {
        let (mut tx, mut rx) = ring::<u64>(2);
        let producer = thread::spawn(move || {
            // Capacity 2 and two pushes: no retry loop needed, every
            // interleaving accepts both.
            tx.try_push(1).unwrap();
            tx.try_push(2).unwrap();
        });
        // Bounded attempts (an unbounded pop spin would be an infinite
        // schedule); whatever is observed must be the FIFO prefix.
        let mut got = Vec::new();
        for _ in 0..3 {
            if let Some(v) = rx.pop() {
                got.push(v);
            }
        }
        assert!([0, 1, 2].contains(&got.len()));
        producer.join().unwrap();
        // Producer joined: everything it pushed is now visible.
        while let Some(v) = rx.pop() {
            got.push(v);
        }
        assert_eq!(got, vec![1, 2], "stream must be FIFO with no loss");
    });
}

#[test]
fn ring_drop_reclaims_each_value_exactly_once() {
    quick().check(|| {
        let drops = Arc::new(StdAtomicUsize::new(0));
        let (mut tx, mut rx) = ring_at::<Token>(2, usize::MAX - 1);
        let d2 = Arc::clone(&drops);
        let producer = thread::spawn(move || {
            tx.try_push(Token::new(&d2, 1)).unwrap();
            tx.try_push(Token::new(&d2, 2)).unwrap();
            // tx drops here → closes the ring.
        });
        // Consume at most one value concurrently; the ring's Drop must
        // reclaim the rest — never double-dropping, never leaking.
        let popped = rx.pop();
        let popped_n = usize::from(popped.is_some());
        if let Some(token) = &popped {
            assert_eq!(*token.payload, 1, "pop must yield the oldest value");
        }
        producer.join().unwrap();
        drop(popped);
        drop(rx);
        assert_eq!(
            drops.load(StdOrdering::Relaxed),
            2,
            "every token dropped exactly once (popped {popped_n} by hand)"
        );
    });
}

#[test]
fn ring_close_is_observed_after_final_push() {
    quick().check(|| {
        let (mut tx, mut rx) = ring::<u8>(2);
        let producer = thread::spawn(move || {
            tx.try_push(9).unwrap();
            // Producer drop closes the stream.
        });
        // is_finished ⇒ the final value has been drained: close is
        // published after the push, so finished-and-empty can never hide
        // a queued value.
        let mut got = Vec::new();
        for _ in 0..4 {
            if rx.is_finished() {
                break;
            }
            if let Some(v) = rx.pop() {
                got.push(v);
            }
        }
        producer.join().unwrap();
        while let Some(v) = rx.pop() {
            got.push(v);
        }
        assert!(rx.is_finished());
        assert_eq!(got, vec![9], "no value may be lost at close");
    });
}

/// A miniature SPSC slot modeled on `ring::try_push`/`pop`, with the
/// one-line bug the checker must catch: the producer publishes `tail`
/// with `Relaxed` instead of `Release`, so the slot write is not ordered
/// before the consumer's read.
mod buggy {
    use laelaps_check::cell::UnsafeCell;
    use laelaps_check::sync::atomic::{AtomicUsize, Ordering};

    pub struct BuggySlot {
        pub value: UnsafeCell<u64>,
        pub tail: AtomicUsize,
    }

    // SAFETY: intentionally under-synchronized for the test; the checker
    // is expected to report the data race this sharing allows.
    unsafe impl Sync for BuggySlot {}
    unsafe impl Send for BuggySlot {}

    impl BuggySlot {
        pub fn new() -> Self {
            BuggySlot {
                value: UnsafeCell::new(0),
                tail: AtomicUsize::new(0),
            }
        }

        pub fn push(&self, v: u64) {
            self.value.with_mut(|p| unsafe { *p = v });
            // BUG under test: ring.rs uses Release here.
            self.tail.store(1, Ordering::Relaxed);
        }

        pub fn pop(&self) -> Option<u64> {
            if self.tail.load(Ordering::Acquire) == 0 {
                return None;
            }
            Some(self.value.with(|p| unsafe { *p }))
        }
    }
}

#[test]
fn weakened_tail_publish_is_caught_with_a_replayable_seed() {
    let failure = quick().find_failure(|| {
        let slot = Arc::new(buggy::BuggySlot::new());
        let s2 = Arc::clone(&slot);
        let producer = thread::spawn(move || s2.push(7));
        let _ = slot.pop();
        producer.join().unwrap();
    });
    let failure = failure.expect("the Relaxed tail publish must be caught");
    assert!(
        failure.message.contains("data race"),
        "unexpected failure kind: {failure}"
    );
    assert!(
        !failure.trace.is_empty(),
        "failure must carry a replayable schedule trace"
    );
    // The Display form is what a CI log shows: it must tell the reader
    // how to replay the exact failing schedule.
    let shown = failure.to_string();
    assert!(
        shown.contains("LAELAPS_CHECK_SEED") || failure.seed.is_none(),
        "random-mode failures must print the replay seed: {shown}"
    );
}

#[test]
fn swap_gate_applies_exactly_once_at_the_barrier() {
    quick().check(|| {
        let gate = Arc::new(SwapGate::new());
        let g2 = Arc::clone(&gate);
        // Requester stages model "7" behind a barrier of 1 processed
        // frame, racing the applier's barrier polls.
        let requester = thread::spawn(move || g2.stage(7u32, 1));
        let mut applied: Vec<(u64, u32)> = Vec::new();
        for processed in 0..3u64 {
            if let Some(v) = gate.take_due(processed) {
                applied.push((processed, v));
            }
        }
        requester.join().unwrap();
        // The applier is now past the barrier; a staged-but-unseen swap
        // must be delivered on the next poll, never dropped.
        if let Some(v) = gate.take_due(3) {
            applied.push((3, v));
        }
        assert_eq!(
            applied.len(),
            1,
            "swap must apply exactly once: {applied:?}"
        );
        let (at, v) = applied[0];
        assert_eq!(v, 7);
        assert!(at >= 1, "swap applied before its barrier (at {at})");
        gate.settle();
        assert!(!gate.is_pending());
    });
}

#[test]
fn swap_gate_latest_wins_under_racing_stages() {
    quick().check(|| {
        let gate = Arc::new(SwapGate::new());
        let (g1, g2) = (Arc::clone(&gate), Arc::clone(&gate));
        let r1 = thread::spawn(move || g1.stage(1u32, 0));
        let r2 = thread::spawn(move || g2.stage(2u32, 0));
        r1.join().unwrap();
        r2.join().unwrap();
        let first = gate.take_due(0).expect("one staged value must survive");
        assert!(first == 1 || first == 2);
        assert_eq!(gate.take_due(u64::MAX), None, "only one value survives");
    });
}

/// The flush protocol over the gate: the applier (this thread) takes a
/// due swap, appends its marker to the outbox and settles; a flusher
/// waits until the gate is no longer pending and must then find the
/// marker. With `settle_first` the applier settles before publishing —
/// the order a gate that ends the pending state at the take implies.
fn flush_after_swap(settle_first: bool) {
    let gate = Arc::new(SwapGate::new());
    let outbox = Arc::new(Mutex::new(Vec::new()));
    gate.stage(7u32, 0);
    let flusher = {
        let (gate, outbox) = (Arc::clone(&gate), Arc::clone(&outbox));
        thread::spawn(move || {
            while gate.is_pending() {
                thread::yield_now();
            }
            assert_eq!(
                *outbox.lock().unwrap(),
                vec![7],
                "flush returned before the swap's marker was published"
            );
        })
    };
    let swap = gate.take_due(0).expect("due at its barrier");
    if settle_first {
        // BUG under test: the session settles after publishing.
        gate.settle();
        outbox.lock().unwrap().push(swap);
    } else {
        outbox.lock().unwrap().push(swap);
        gate.settle();
    }
    flusher.join().unwrap();
}

#[test]
fn flush_waits_for_the_swap_marker() {
    quick().check(|| flush_after_swap(false));
}

/// The randomized phase finds this at seed 4; replay it with
/// `LAELAPS_CHECK_SEED=4 RUSTFLAGS="--cfg laelaps_check" cargo test -p
/// laelaps-serve --test model -- settling_before_publishing`.
#[test]
fn settling_before_publishing_lets_flush_miss_the_marker() {
    let failure = seeded()
        .find_failure(|| flush_after_swap(true))
        .expect("settling before the publish must let flush miss the marker");
    assert!(
        failure.message.contains("before the swap's marker"),
        "unexpected failure kind: {failure}"
    );
    assert!(failure.seed.is_some(), "random schedules carry a seed");
}

// ---------------------------------------------------------------------------
// Ready queue: a producer schedules after every push, one pool worker
// drains what is scheduled.
// ---------------------------------------------------------------------------

/// Values the producer pushes per execution.
const VALUES: u32 = 2;

/// The values a worker drained, in order, and a condvar the producer
/// blocks on until all of them arrived.
#[derive(Default)]
struct Tally {
    drained: Mutex<Vec<u32>>,
    grew: Condvar,
}

impl Tally {
    /// Pops everything `rx` holds into the tally; returns how many. The
    /// pops come before the tally's lock, which would otherwise order the
    /// producer's pushes before them once the producer waits.
    fn pop_all(&self, rx: &std::sync::Mutex<Consumer<u32>>) -> usize {
        let mut popped = Vec::new();
        while let Some(v) = rx.lock().unwrap().pop() {
            popped.push(v);
        }
        let n = popped.len();
        if n > 0 {
            self.drained.lock().unwrap().extend(popped);
            self.grew.notify_all();
        }
        n
    }

    /// Blocks (no timeout) until `VALUES` values were drained: a value
    /// left in the ring with nobody scheduled to drain it deadlocks
    /// here, and the checker reports the schedule.
    fn wait_for_all(&self) {
        let mut drained = self.drained.lock().unwrap();
        while drained.len() < VALUES as usize {
            drained = self.grew.wait(drained).unwrap();
        }
        assert_eq!(*drained, (0..VALUES).collect::<Vec<_>>(), "FIFO, no loss");
    }
}

/// One way of scheduling a ring's consumer onto a worker: the real
/// [`ReadyQueue`], or a written-out copy with one line changed.
trait Protocol: Send + Sync + 'static {
    fn new(rx: Consumer<u32>) -> Self;
    /// The producer's half, after a push: `true` means wake the worker.
    fn schedule(&self) -> bool;
    /// One pass of the worker; `true` if it drained anything.
    fn pass(&self, tally: &Tally) -> bool;
}

/// The ring's consumer end as a schedulable item.
struct Inbox {
    scheduled: ReadyFlag,
    rx: std::sync::Mutex<Consumer<u32>>,
}

impl Schedulable for Inbox {
    fn ready_flag(&self) -> &ReadyFlag {
        &self.scheduled
    }
}

/// The protocol as `laelaps_serve::ready` ships it.
struct Shipped {
    queue: ReadyQueue<Inbox>,
    inbox: Arc<Inbox>,
}

impl Protocol for Shipped {
    fn new(rx: Consumer<u32>) -> Self {
        Shipped {
            queue: ReadyQueue::new(),
            inbox: Arc::new(Inbox {
                scheduled: ReadyFlag::new(),
                rx: std::sync::Mutex::new(rx),
            }),
        }
    }

    fn schedule(&self) -> bool {
        self.queue.schedule(&self.inbox)
    }

    fn pass(&self, tally: &Tally) -> bool {
        self.queue.pass(|inbox| match tally.pop_all(&inbox.rx) {
            0 => Drained::Idle,
            _ => Drained::Worked,
        })
    }
}

/// Drives one producer against one [`ShardedPool`] worker: the producer
/// pushes `VALUES` values, scheduling after each push and waking shard 0
/// on the schedule's false→true edge, then blocks until the worker
/// drained them all. The worker parks through the pool's own epoch
/// snapshot and recheck, so any deadlock is a value the protocol failed
/// to schedule. (The pool's idle-poll timeout does not rescue one: a
/// rescan drains only what is queued.)
fn drive<P: Protocol>() {
    let (mut tx, rx) = ring::<u32>(VALUES as usize);
    let protocol = Arc::new(P::new(rx));
    let tally = Arc::new(Tally::default());
    // Dropping a pool joins its worker, which a failing execution's
    // teardown cannot do; the pool is dropped only once every value
    // arrived, and a failing schedule leaks it.
    let pool = std::mem::ManuallyDrop::new({
        let (protocol, tally) = (Arc::clone(&protocol), Arc::clone(&tally));
        ShardedPool::new(1, move |_shard| protocol.pass(&tally))
    });
    for v in 0..VALUES {
        tx.try_push(v).unwrap();
        if protocol.schedule() {
            pool.notify_shard(0);
        }
    }
    tally.wait_for_all();
    drop(std::mem::ManuallyDrop::into_inner(pool));
}

#[test]
fn ready_queue_never_strands_a_pushed_value() {
    quick().check(drive::<Shipped>);
}

/// `laelaps_serve::ready` with its flag in reach, for the two mutations
/// below. Everything but the marked line matches `ReadyQueue`.
struct Written {
    scheduled: AtomicBool,
    queue: Mutex<Vec<Arc<std::sync::Mutex<Consumer<u32>>>>>,
    rx: Arc<std::sync::Mutex<Consumer<u32>>>,
}

impl Written {
    fn with(rx: Consumer<u32>) -> Self {
        Written {
            scheduled: AtomicBool::new(false),
            queue: Mutex::new(Vec::new()),
            rx: Arc::new(std::sync::Mutex::new(rx)),
        }
    }

    fn schedule(&self) -> bool {
        if self.scheduled.swap(true, Ordering::AcqRel) {
            return false;
        }
        self.queue.lock().unwrap().push(Arc::clone(&self.rx));
        true
    }

    fn take(&self) -> Vec<Arc<std::sync::Mutex<Consumer<u32>>>> {
        std::mem::take(&mut *self.queue.lock().unwrap())
    }
}

/// Mutation 1: the worker clears the flag *after* draining. A push that
/// lands between the drain's last pop and the clear finds the flag still
/// set, so it neither queues the item nor wakes the worker, and the
/// clear then hides it for good.
struct ClearAfterDrain(Written);

impl Protocol for ClearAfterDrain {
    fn new(rx: Consumer<u32>) -> Self {
        ClearAfterDrain(Written::with(rx))
    }

    fn schedule(&self) -> bool {
        self.0.schedule()
    }

    fn pass(&self, tally: &Tally) -> bool {
        let mut worked = false;
        for rx in self.0.take() {
            worked |= tally.pop_all(&rx) > 0;
            // BUG under test: ready.rs clears before the drain.
            self.0.scheduled.swap(false, Ordering::AcqRel);
        }
        worked
    }
}

/// Mutation 2: the worker clears the flag with a plain `Release` store.
/// The store reads nothing, so when a producer's swap finds the flag
/// still set (and skips the wakeup), nothing orders that producer's
/// push before the drain's loads: the drain may see the ring without the
/// new value even though it starts after the push (a store→load,
/// Dekker-style race).
struct ClearWithStore(Written);

impl Protocol for ClearWithStore {
    fn new(rx: Consumer<u32>) -> Self {
        ClearWithStore(Written::with(rx))
    }

    fn schedule(&self) -> bool {
        self.0.schedule()
    }

    fn pass(&self, tally: &Tally) -> bool {
        let mut worked = false;
        for rx in self.0.take() {
            // BUG under test: ready.rs clears with swap(false, AcqRel).
            self.0.scheduled.store(false, Ordering::Release);
            worked |= tally.pop_all(&rx) > 0;
        }
        worked
    }
}

/// Random schedules only, so that a failure carries a replay seed.
fn seeded() -> Checker {
    Checker::new().dfs_budget(0).random_iters(200)
}

/// The randomized phase finds this at seed 3; replay it with
/// `LAELAPS_CHECK_SEED=3 RUSTFLAGS="--cfg laelaps_check" cargo test -p
/// laelaps-serve --test model -- clearing_the_ready_flag_after_the_drain`.
#[test]
fn clearing_the_ready_flag_after_the_drain_strands_a_value() {
    let failure = seeded()
        .find_failure(drive::<ClearAfterDrain>)
        .expect("clearing after the drain must strand a value");
    assert!(
        failure.message.contains("deadlock"),
        "unexpected failure kind: {failure}"
    );
    assert!(failure.seed.is_some(), "random schedules carry a seed");
}

/// The randomized phase finds this at seed 16; replay it with
/// `LAELAPS_CHECK_SEED=16 RUSTFLAGS="--cfg laelaps_check" cargo test -p
/// laelaps-serve --test model -- clearing_the_ready_flag_with_a_store`.
#[test]
fn clearing_the_ready_flag_with_a_store_strands_a_value() {
    let failure = seeded()
        .find_failure(drive::<ClearWithStore>)
        .expect("a store clear must strand a value");
    assert!(
        failure.message.contains("deadlock"),
        "unexpected failure kind: {failure}"
    );
    assert!(failure.seed.is_some(), "random schedules carry a seed");
}
