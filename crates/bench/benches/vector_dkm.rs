//! Extension bench: vector (multi-dimensional) DKM clustering cost and
//! block-uniquification packing cost across cluster dimensionalities.
//!
//! At fixed bits/weight, raising `cluster_dim` shrinks the attention map
//! (`|W|/d` rows) but pays a `d`-wide distance kernel; this bench measures
//! where the trade lands, alongside the wide (u32) uniquification path the
//! block keys require.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use edkm_core::uniquify::{self, RowKeys};
use edkm_core::{DkmConfig, DkmLayer};
use edkm_tensor::{DType, Device, Tensor};
use std::hint::black_box;

fn bench_cluster_dims(c: &mut Criterion) {
    let mut group = c.benchmark_group("vector_dkm_cluster");
    group.sample_size(10);
    let n = 8192usize;
    let w = Tensor::randn(&[n], DType::Bf16, Device::Cpu, 0).map(|v| v * 0.02);
    // 4 index bits per block at every point: d scales bits/weight down.
    for &dim in &[1usize, 2, 4] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("fwd_4bit", dim), &dim, |b, &dim| {
            let layer = DkmLayer::new(DkmConfig {
                iters: 3,
                ..DkmConfig::with_vector(4, dim)
            });
            b.iter(|| black_box(layer.cluster_tensor(&w)));
        });
    }
    group.finish();
}

fn bench_block_uniquify(c: &mut Criterion) {
    let mut group = c.benchmark_group("vector_dkm_uniquify");
    group.sample_size(20);
    let nblocks = 4096usize;
    let k = 16usize;
    // Low-entropy patterns (weights collapsed toward centroids late in a
    // clustering fine-tune): few unique blocks, wide path profits.
    for &dim in &[1usize, 2, 4] {
        let patterns: Vec<u16> = (0..nblocks * dim).map(|i| (i % 23) as u16).collect();
        let keys = RowKeys::blocks(&patterns, dim);
        let dense: Vec<f32> = keys
            .keys()
            .iter()
            .flat_map(|&key| (0..k).map(move |j| (key % 97) as f32 + j as f32))
            .collect();
        group.throughput(Throughput::Elements((nblocks * k) as u64));
        group.bench_with_input(BenchmarkId::new("uniquify_wide", dim), &dim, |b, _| {
            b.iter(|| black_box(uniquify::uniquify_wide(&dense, &keys, k)));
        });
        group.bench_with_input(BenchmarkId::new("reconstruct_wide", dim), &dim, |b, _| {
            let (table, index, _) = uniquify::uniquify_wide(&dense, &keys, k);
            b.iter(|| black_box(uniquify::reconstruct_wide(&table, &index, k)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cluster_dims, bench_block_uniquify);
criterion_main!(benches);
