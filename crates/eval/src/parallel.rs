//! Work-stealing parallelism for cohort sweeps and the serving layer.
//!
//! Two tools live here:
//!
//! * [`parallel_map`] — a one-shot, order-preserving parallel map used by
//!   the experiment harness (one item ≈ one patient);
//! * [`ShardedPool`] — persistent worker threads, one per shard, each
//!   woken by its own signal; `laelaps-serve` wakes a shard's worker when
//!   it queues work for one of that shard's sessions.
//!   The pool itself lives in [`crate::pool`] (on the `laelaps_check`
//!   facade so its wakeup protocol is model-checkable) and is re-exported
//!   here for compatibility.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

pub use crate::pool::{PoolWaker, ShardedPool, IDLE_POLL};

/// Applies `f` to every item using up to `threads` worker threads,
/// preserving input order in the output.
///
/// Items are claimed dynamically (an atomic cursor), so uneven per-item
/// cost still balances across workers. Results travel through an
/// index-stamped channel and land directly in the output vector — no
/// per-item locking.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<U>> = Vec::new();
    results.resize_with(items.len(), || None);
    let (sender, receiver) = mpsc::channel::<(usize, U)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let sender = sender.clone();
            let (next, f) = (&next, &f);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                // A send error means the receiver side already tore down
                // because another worker panicked; stop quietly and let
                // the scope propagate that panic.
                if sender.send((i, f(&items[i]))).is_err() {
                    break;
                }
            });
        }
        drop(sender);
        for (i, value) in receiver {
            results[i] = Some(value);
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("worker produced every claimed index"))
        .collect()
}

/// Default worker count: the machine's logical cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn maps_in_order() {
        let items: Vec<u32> = (0..50).collect();
        let out = parallel_map(&items, 4, |&x| x * 2);
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_works() {
        let out = parallel_map(&[1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(&[] as &[i32], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_items_still_complete() {
        let items: Vec<u64> = (0..40).collect();
        let out = parallel_map(&items, 8, |&x| {
            if x % 7 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            x * x
        });
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let items = [1u32, 2, 3];
        let _ = parallel_map(&items, 2, |&x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn thread_count_is_sane() {
        assert!(default_threads() >= 1);
    }
}
