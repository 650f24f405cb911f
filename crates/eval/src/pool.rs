//! Persistent sharded worker pool with race-free, per-shard wakeups.
//!
//! Extracted from [`crate::parallel`] so the pool's concurrency protocol
//! — the epoch-snapshot/recheck dance that makes
//! [`PoolWaker::notify_shard`] race-free — lives on the
//! `laelaps_check::sync` facade and can be model-checked
//! (`crates/eval/tests/model.rs` explores the protocol's interleavings
//! under `RUSTFLAGS="--cfg laelaps_check"`). The one-shot
//! [`crate::parallel::parallel_map`] stays on plain `std` (scoped
//! threads, no lock-free protocol to check).
//!
//! Each shard has its own wake signal, so a producer that enqueued work
//! for one shard wakes that shard's worker and no other.
//!
//! Invariants and ordering rationale are catalogued in `CONCURRENCY.md`
//! at the repository root.

use std::time::Duration;

use laelaps_check::sync::atomic::{AtomicBool, Ordering};
use laelaps_check::sync::{Arc, Condvar, Mutex};
use laelaps_check::thread::{Builder, JoinHandle};

/// How long an idle [`ShardedPool`] worker sleeps before re-polling.
///
/// This is a safety net only: producers wake a shard's worker explicitly
/// through [`ShardedPool::notify_shard`] / [`PoolWaker::notify_shard`],
/// and the per-shard epoch makes those wakeups race-free, so the poll can
/// be long — an idle fleet wakes once a second per shard instead of
/// 500×/s. A timed-out worker reruns its closure, which finds only the
/// work it can see: `laelaps-serve`'s closure drains its shard's ready
/// queue, so a session that was given work without being scheduled is
/// not found this way.
pub const IDLE_POLL: Duration = Duration::from_secs(1);

/// Persistent worker threads, one per shard.
///
/// Worker `i` repeatedly invokes the pool closure with shard index `i`.
/// The closure returns `true` when it found work; a worker whose closure
/// found nothing parks on its shard's signal until
/// [`ShardedPool::notify_shard`] (or [`ShardedPool::notify`], or the
/// [`IDLE_POLL`] timeout) before retrying, so an idle pool costs almost
/// nothing while a busy one runs hot. Dropping the pool shuts the workers
/// down and joins them.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
/// use laelaps_eval::parallel::ShardedPool;
///
/// let hits = Arc::new(AtomicUsize::new(0));
/// let pool = {
///     let hits = Arc::clone(&hits);
///     ShardedPool::new(4, move |_shard| {
///         hits.fetch_add(1, Ordering::Relaxed);
///         false // nothing left to do
///     })
/// };
/// pool.notify();
/// while hits.load(Ordering::Relaxed) < 4 {
///     std::thread::yield_now();
/// }
/// drop(pool); // joins the four workers
/// ```
pub struct ShardedPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

struct PoolShared {
    shutdown: AtomicBool,
    /// One wake signal per shard, indexed like the workers.
    signals: Box<[ShardSignal]>,
}

/// One shard's wake signal.
struct ShardSignal {
    // Notification epoch: bumped under the lock by every notify of this
    // shard. Its worker snapshots it before looking for work; if it moved
    // by the time the worker is about to wait, a notification landed
    // mid-scan and the worker rescans instead of sleeping — no wakeup can
    // be lost.
    epoch: Mutex<u64>,
    wake: Condvar,
}

impl ShardSignal {
    fn notify(&self) {
        let mut epoch = self.epoch.lock().expect("pool lock poisoned");
        *epoch = epoch.wrapping_add(1);
        // Only this shard's worker ever waits here.
        self.wake.notify_one();
    }
}

impl PoolShared {
    fn notify_all_shards(&self) {
        for signal in self.signals.iter() {
            signal.notify();
        }
    }
}

/// A cloneable handle that wakes a [`ShardedPool`]'s workers without
/// owning the pool, so producers (e.g. session handles in
/// `laelaps-serve`) can signal "new work enqueued" from any thread.
///
/// Outlives the pool safely: notifying after the pool shut down is a
/// no-op.
#[derive(Clone)]
pub struct PoolWaker {
    shared: Arc<PoolShared>,
}

impl PoolWaker {
    /// Wakes shard `shard`'s worker only (call after enqueueing work for
    /// that shard).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not below the pool's shard count.
    pub fn notify_shard(&self, shard: usize) {
        self.shared.signals[shard].notify();
    }
}

impl std::fmt::Debug for PoolWaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolWaker").finish_non_exhaustive()
    }
}

impl ShardedPool {
    /// Spawns `shards` workers, each looping over `run(shard_index)`.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new<F>(shards: usize, run: F) -> Self
    where
        F: Fn(usize) -> bool + Send + Sync + 'static,
    {
        assert!(shards > 0, "a pool needs at least one shard");
        let shared = Arc::new(PoolShared {
            shutdown: AtomicBool::new(false),
            signals: (0..shards)
                .map(|_| ShardSignal {
                    epoch: Mutex::new(0),
                    wake: Condvar::new(),
                })
                .collect(),
        });
        let run = Arc::new(run);
        let workers = (0..shards)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                let run = Arc::clone(&run);
                Builder::new()
                    .name(format!("laelaps-shard-{shard}"))
                    .spawn(move || {
                        let signal = &shared.signals[shard];
                        while !shared.shutdown.load(Ordering::Acquire) {
                            // Snapshot the epoch *before* scanning for work:
                            // a notify that lands during the scan moves it,
                            // and the re-check under the lock below turns
                            // what would be a lost wakeup into a rescan.
                            let seen = *signal.epoch.lock().expect("pool lock poisoned");
                            let worked = run(shard);
                            if !worked {
                                let guard = signal.epoch.lock().expect("pool lock poisoned");
                                if shared.shutdown.load(Ordering::Acquire) {
                                    break;
                                }
                                if *guard == seen {
                                    let _ = signal
                                        .wake
                                        .wait_timeout(guard, IDLE_POLL)
                                        .expect("pool lock poisoned");
                                }
                            }
                        }
                    })
                    .expect("failed to spawn shard worker")
            })
            .collect();
        ShardedPool { shared, workers }
    }

    /// Number of shards (and worker threads).
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Wakes every shard's worker.
    pub fn notify(&self) {
        self.shared.notify_all_shards();
    }

    /// Wakes shard `shard`'s worker only (call after enqueueing work for
    /// that shard).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()`.
    pub fn notify_shard(&self, shard: usize) {
        self.shared.signals[shard].notify();
    }

    /// A cloneable [`PoolWaker`] for producers that enqueue work for this
    /// pool but do not own it.
    pub fn waker(&self) -> PoolWaker {
        PoolWaker {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for ShardedPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.notify();
        for worker in self.workers.drain(..) {
            // A worker that panicked already unwound; surface that here.
            if worker.join().is_err() && !std::thread::panicking() {
                panic!("shard worker panicked");
            }
        }
    }
}

impl std::fmt::Debug for ShardedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPool")
            .field("shards", &self.workers.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_runs_every_shard_and_shuts_down() {
        let counts: Arc<Vec<AtomicU64>> = Arc::new((0..3).map(|_| AtomicU64::new(0)).collect());
        let pool = {
            let counts = Arc::clone(&counts);
            ShardedPool::new(3, move |shard| {
                counts[shard].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                false
            })
        };
        assert_eq!(pool.shards(), 3);
        pool.notify();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while counts
            .iter()
            .any(|c| c.load(std::sync::atomic::Ordering::Relaxed) == 0)
        {
            assert!(
                std::time::Instant::now() < deadline,
                "pool workers never ran"
            );
            std::thread::yield_now();
        }
        drop(pool);
    }

    #[test]
    fn waker_wakes_an_idle_pool_well_under_the_poll_interval() {
        let queue: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let drained = Arc::new(AtomicU64::new(0));
        let pool = {
            let (queue, drained) = (Arc::clone(&queue), Arc::clone(&drained));
            ShardedPool::new(2, move |_shard| {
                let item = queue.lock().unwrap().pop();
                match item {
                    Some(_) => {
                        drained.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        true
                    }
                    None => false,
                }
            })
        };
        let waker = pool.waker();
        // Let every worker scan an empty queue and park.
        std::thread::sleep(Duration::from_millis(30));
        queue.lock().unwrap().push(7);
        let start = std::time::Instant::now();
        waker.notify_shard(1);
        while drained.load(std::sync::atomic::Ordering::Relaxed) == 0 {
            assert!(
                start.elapsed() < IDLE_POLL / 2,
                "woken worker should pick the item up immediately, not on \
                 the idle-poll timeout"
            );
            std::thread::sleep(Duration::from_micros(100));
        }
        drop(pool);
        // Notifying after shutdown is a harmless no-op.
        waker.notify_shard(1);
    }

    #[test]
    fn notify_shard_runs_that_shard_only() {
        let counts: Arc<Vec<AtomicU64>> = Arc::new((0..2).map(|_| AtomicU64::new(0)).collect());
        let start = std::time::Instant::now();
        let pool = {
            let counts = Arc::clone(&counts);
            ShardedPool::new(2, move |shard| {
                counts[shard].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                false
            })
        };
        let count = |shard: usize| counts[shard].load(std::sync::atomic::Ordering::Relaxed);
        // Each worker scans once at startup, then parks on its own signal.
        std::thread::sleep(Duration::from_millis(30));
        let before = [count(0), count(1)];
        assert!(before.iter().all(|&n| n >= 1), "every worker scans once");
        let waker = pool.waker();
        let notifies: [&dyn Fn(); 2] = [&|| pool.notify_shard(1), &|| waker.notify_shard(1)];
        for notify in notifies {
            let seen = count(1);
            notify();
            while count(1) == seen {
                assert!(
                    start.elapsed() < IDLE_POLL / 2,
                    "the notified shard never ran"
                );
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        // Give a wrongly woken shard 0 time to show up in its count.
        std::thread::sleep(Duration::from_millis(20));
        // Past the idle poll, shard 0 may have run on its timeout.
        if start.elapsed() < IDLE_POLL {
            assert_eq!(count(0), before[0], "notify_shard(1) woke shard 0");
        }
        drop(pool);
    }

    #[test]
    fn pool_drains_queued_work() {
        let queue: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new((0..100).collect()));
        let drained = Arc::new(AtomicU64::new(0));
        let pool = {
            let (queue, drained) = (Arc::clone(&queue), Arc::clone(&drained));
            ShardedPool::new(4, move |_shard| {
                let item = queue.lock().unwrap().pop();
                match item {
                    Some(_) => {
                        drained.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        true
                    }
                    None => false,
                }
            })
        };
        pool.notify();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while drained.load(std::sync::atomic::Ordering::Relaxed) < 100 {
            assert!(std::time::Instant::now() < deadline, "queue never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
