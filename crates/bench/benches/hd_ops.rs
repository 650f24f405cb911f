//! Micro-benchmarks of the HD-computing primitives: binding, Hamming
//! distance, and dense bundling, swept over the paper's dimension range
//! (d ∈ [1 k, 10 k]).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use laelaps_core::hv::{DenseAccumulator, Hypervector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_xor_hamming(c: &mut Criterion) {
    let mut group = c.benchmark_group("hv_xor_hamming");
    group.sample_size(30);
    for &dim in &[1_000usize, 4_000, 10_000] {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Hypervector::random(dim, &mut rng);
        let b = Hypervector::random(dim, &mut rng);
        group.bench_with_input(BenchmarkId::new("xor", dim), &dim, |bench, _| {
            bench.iter(|| black_box(black_box(&a).xor(black_box(&b))));
        });
        group.bench_with_input(BenchmarkId::new("hamming", dim), &dim, |bench, _| {
            bench.iter(|| black_box(black_box(&a).hamming(black_box(&b))));
        });
    }
    group.finish();
}

fn bench_bundling(c: &mut Criterion) {
    // Bundle 64 vectors (one mid-size electrode montage) and threshold.
    let mut group = c.benchmark_group("bundling_64_vectors");
    group.sample_size(20);
    for &dim in &[1_000usize, 4_000, 10_000] {
        let mut rng = StdRng::seed_from_u64(2);
        let vs: Vec<Hypervector> = (0..64)
            .map(|_| Hypervector::random(dim, &mut rng))
            .collect();
        group.bench_with_input(BenchmarkId::new("dense", dim), &dim, |bench, _| {
            bench.iter(|| {
                let mut acc = DenseAccumulator::new(dim);
                for v in &vs {
                    acc.add(black_box(v));
                }
                black_box(acc.majority())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_xor_hamming, bench_bundling);
criterion_main!(benches);
