//! Model-checked tests for the lock-free telemetry primitives.
//!
//! * The histogram: racing recorders and a concurrent sampler must never
//!   corrupt the counters — a snapshot can be *partial* (Relaxed loads),
//!   but it can never invent samples, and once the recorders are joined
//!   it must be exact.
//! * The flight recorder: concurrent writers racing a snapshot reader
//!   must never let the reader accept a torn record — every accepted
//!   entry is exactly one writer's payload, and the drop accounting
//!   stays consistent.
//! * The heavy-hitter sketch: racing updaters and a concurrent
//!   snapshotter must never tear an entry — every accepted `(key,
//!   weight, err)` triple satisfies the Space-Saving bounds, slot
//!   weights are monotone, and adds that lose a claim race are counted
//!   dropped, never silently lost.
//!
//! The recorder and the sketch share one seqlocked slot type, so these
//! two tests are also what pins that slot's protocol.
//!
//! Compiled (and meaningful) only under `RUSTFLAGS="--cfg laelaps_check"`.
#![cfg(laelaps_check)]

use std::sync::Arc;

use laelaps_check::{thread, Checker};
use laelaps_telemetry::{FlightRecorder, Histogram, TopK, RECORD_WORDS};

#[test]
fn histogram_accounting_survives_racing_pushers_and_samplers() {
    // A snapshot scans all ~1000 buckets, so each execution is long:
    // skip DFS (the tree is astronomically wide) and run seeded random
    // schedules with a raised step ceiling instead.
    Checker::new()
        .dfs_budget(0)
        .random_iters(15)
        .max_steps(200_000)
        .check(|| {
            let hist = Arc::new(Histogram::new());
            let (h1, h2) = (Arc::clone(&hist), Arc::clone(&hist));
            // Distinct values in distinct buckets (3 is linear-region,
            // 40_000 is log-region) so partial visibility is detectable
            // per-sample.
            let r1 = thread::spawn(move || h1.record(3));
            let r2 = thread::spawn(move || h2.record(40_000));
            // Mid-race snapshot: every field must be a subset of what
            // was recorded — counts, sum, and max can lag, never invent.
            let mid = hist.snapshot();
            assert!(mid.count <= 2, "phantom samples: {mid:?}");
            assert!(mid.sum <= 3 + 40_000, "phantom sum: {mid:?}");
            assert!(
                [0, 3, 40_000].contains(&mid.max),
                "max must be a recorded value or zero: {mid:?}"
            );
            for &(_, n) in &mid.buckets {
                assert!(n <= 1, "a bucket was double-counted: {mid:?}");
            }
            r1.join().unwrap();
            r2.join().unwrap();
            // Joined: the final snapshot is exact (join gives the sampler
            // happens-before with both recorders).
            let end = hist.snapshot();
            assert_eq!(end.count, 2, "exact count after join: {end:?}");
            assert_eq!(end.sum, 3 + 40_000, "exact sum after join: {end:?}");
            assert_eq!(end.max, 40_000, "exact max after join: {end:?}");
        });
}

#[test]
fn flight_recorder_snapshot_never_observes_a_torn_record() {
    // Capacity 2 forces both writers onto a colliding slot space, so
    // the schedules cover claim races (CAS failure → drop) as well as
    // the reader racing a mid-write slot. Each writer's payload has all
    // five words equal to a writer-unique value, so a torn mix of two
    // writers is detectable in any single accepted entry.
    Checker::new()
        .dfs_budget(4_000)
        .random_iters(25)
        .max_steps(50_000)
        .check(|| {
            let rec = Arc::new(FlightRecorder::new(2));
            let (w1, w2) = (Arc::clone(&rec), Arc::clone(&rec));
            let t1 = thread::spawn(move || {
                w1.write([11; RECORD_WORDS]);
                w1.write([22; RECORD_WORDS]);
            });
            let t2 = thread::spawn(move || w2.write([33; RECORD_WORDS]));
            // Mid-race snapshot: partial is fine, torn is not.
            for entry in rec.snapshot() {
                assert!(
                    entry.words.iter().all(|&w| w == entry.words[0]),
                    "torn record mid-race: {entry:?}"
                );
                assert!(
                    [11, 22, 33].contains(&entry.words[0]),
                    "invented payload: {entry:?}"
                );
                assert!(entry.seq < 3, "sequence beyond what was claimed: {entry:?}");
            }
            t1.join().unwrap();
            t2.join().unwrap();
            // Joined: every claim is accounted for, and the surviving
            // records are still whole with unique sequence numbers.
            assert_eq!(rec.recorded(), 3, "every write claimed a sequence");
            let end = rec.snapshot();
            assert!(
                end.len() as u64 + rec.dropped() <= 3,
                "records + drops exceed claims: {end:?}"
            );
            let mut seqs: Vec<u64> = end.iter().map(|e| e.seq).collect();
            seqs.dedup();
            assert_eq!(seqs.len(), end.len(), "duplicate sequence numbers: {end:?}");
            for entry in &end {
                assert!(
                    entry.words.iter().all(|&w| w == entry.words[0]),
                    "torn record after join: {entry:?}"
                );
            }
        });
}

#[test]
fn top_k_snapshot_never_observes_a_torn_entry() {
    // Capacity 1 forces both updaters onto the same slot, so the
    // schedules cover claim races (CAS failure → dropped add) as well
    // as the reader racing a mid-write slot. Contribution weights are
    // distinct powers of two, so the slot's accumulated weight says
    // exactly which adds landed (empty, same-key, and evict writes all
    // accumulate additively).
    Checker::new()
        .dfs_budget(4_000)
        .random_iters(25)
        .max_steps(50_000)
        .check(|| {
            let topk = Arc::new(TopK::new(1));
            let (u1, u2) = (Arc::clone(&topk), Arc::clone(&topk));
            let t1 = thread::spawn(move || {
                u1.add(1, 1);
                u1.add(1, 2);
            });
            let t2 = thread::spawn(move || u2.add(2, 4));
            // Mid-race snapshots: partial is fine, torn is not. Every
            // accepted entry must satisfy the Space-Saving bounds
            // against the true per-key totals (key 1 ≤ 3, key 2 ≤ 4).
            let s1 = topk.snapshot();
            let s2 = topk.snapshot();
            for entry in s1.iter().chain(s2.iter()) {
                assert!([1, 2].contains(&entry.key), "invented key: {entry:?}");
                assert!(entry.weight <= 7, "weight beyond what was added: {entry:?}");
                assert!(entry.err <= entry.weight, "error above weight: {entry:?}");
                let true_total = if entry.key == 1 { 3 } else { 4 };
                assert!(
                    entry.lower_bound() <= true_total,
                    "lower bound above the true total: {entry:?}"
                );
            }
            // Slot weights are monotone, so two sequential snapshots
            // that both accepted the slot must agree on direction.
            if let (Some(a), Some(b)) = (s1.first(), s2.first()) {
                assert!(
                    b.weight >= a.weight,
                    "weight went backwards: {a:?} -> {b:?}"
                );
            }
            t1.join().unwrap();
            t2.join().unwrap();
            // Joined: at least one add won its claim, and every add
            // either landed (its power of two is present in the
            // accumulated weight) or was counted dropped — conservation,
            // no silent loss.
            let end = topk.snapshot();
            assert_eq!(end.len(), 1, "the slot was written at least once: {end:?}");
            let landed = u64::from(end[0].weight.count_ones());
            assert_eq!(
                landed + topk.dropped(),
                3,
                "landed + dropped must cover every add: {end:?}"
            );
            let true_total = if end[0].key == 1 { 3 } else { 4 };
            assert!(
                end[0].lower_bound() <= true_total,
                "lower bound above the true total after join: {end:?}"
            );
        });
}
