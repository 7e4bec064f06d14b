//! Prioritised accumulation: Prop. 10 grouping and Prop. 11 cascades
//! versus direct BNL on the composite order.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pref_core::prelude::*;
use pref_query::algorithms::bnl;
use pref_query::Engine;
use pref_workload::cars;
use std::hint::black_box;

fn bench_grouped_prioritised(c: &mut Criterion) {
    let mut group = c.benchmark_group("prioritized/grouping");
    group.sample_size(10);
    // A non-chain head (POS on color) over a chain tail: Prop. 10 path.
    let p = pos("color", ["red", "blue"]).prior(around("price", 15_000));
    // Capacity 0: every iteration decomposes from scratch.
    let cold = Engine::new().with_capacity(0);
    for n in [1_000usize, 4_000, 16_000] {
        let r = cars::catalog(n, 31);
        group.bench_with_input(BenchmarkId::new("direct-bnl", n), &r, |b, r| {
            b.iter(|| black_box(bnl::bnl(&p, r).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("prop10-grouping", n), &r, |b, r| {
            b.iter(|| black_box(cold.sigma_decomposed(&p, r).unwrap()))
        });
    }
    group.finish();
}

fn bench_cascade(c: &mut Criterion) {
    let mut group = c.benchmark_group("prioritized/cascade");
    group.sample_size(10);
    // Chain head: Prop. 11 evaluates the tail only on σ[P1](R).
    let p = lowest("price").prior(lowest("mileage").pareto(highest("year")));
    let cold = Engine::new().with_capacity(0);
    for n in [1_000usize, 4_000, 16_000] {
        let r = cars::catalog(n, 32);
        group.bench_with_input(BenchmarkId::new("direct-bnl", n), &r, |b, r| {
            b.iter(|| black_box(bnl::bnl(&p, r).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("prop11-cascade", n), &r, |b, r| {
            b.iter(|| black_box(cold.sigma_decomposed(&p, r).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_grouped_prioritised, bench_cascade);
criterion_main!(benches);
