//! Criterion bench: local matmul kernels (the γ side) — the ablation of
//! the per-rank compute choice called out in DESIGN.md §7.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pmm_dense::{gemm, random_matrix, Kernel};
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_matmul");
    // Every tier, including Auto (whose cost is the dispatch heuristic
    // plus whichever tier it resolves to at that size).
    for n in [32usize, 64, 128, 256] {
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        group.throughput(Throughput::Elements((n * n * n) as u64));
        for kernel in Kernel::ALL {
            group.bench_with_input(BenchmarkId::new(format!("{kernel:?}"), n), &n, |bench, _| {
                bench.iter(|| black_box(gemm(black_box(&a), black_box(&b), kernel)))
            });
        }
    }
    group.finish();
}

fn bench_rectangular(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_matmul_rect");
    // The shapes Algorithm 1's ranks actually see: skewed blocks.
    for (m, k, n) in [(256usize, 64usize, 16usize), (64, 256, 64), (16, 16, 1024)] {
        let a = random_matrix(m, k, 3);
        let b = random_matrix(k, n, 4);
        group.throughput(Throughput::Elements((m * k * n) as u64));
        for kernel in [Kernel::Naive, Kernel::Blocked] {
            group.bench_with_input(
                BenchmarkId::new(format!("{kernel:?}"), format!("{m}x{k}x{n}")),
                &0,
                |bench, _| bench.iter(|| black_box(gemm(black_box(&a), black_box(&b), kernel))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_rectangular);
criterion_main!(benches);
