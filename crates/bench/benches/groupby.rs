//! Grouped preference queries (Def. 16): the hash-grouping evaluator
//! versus the definitional `σ[A↔ & P](R)` form run through BNL.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pref_core::prelude::*;
use pref_query::groupby::sigma_groupby_definitional;
use pref_query::Engine;
use pref_relation::{attr, AttrSet};
use pref_workload::cars;
use std::hint::black_box;

fn bench_groupby(c: &mut Criterion) {
    let mut group = c.benchmark_group("groupby/make");
    group.sample_size(10);
    let p = around("price", 15_000);
    let by = AttrSet::single(attr("make"));
    // Capacity 0: every iteration builds its own matrix.
    let cold = Engine::new().with_capacity(0);
    for n in [1_000usize, 4_000, 16_000] {
        let r = cars::catalog(n, 21);
        group.bench_with_input(BenchmarkId::new("hash-grouping", n), &r, |b, r| {
            b.iter(|| black_box(cold.sigma_groupby(&p, &by, r).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("definitional-bnl", n), &r, |b, r| {
            b.iter(|| black_box(sigma_groupby_definitional(&p, &by, r).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_groupby);
criterion_main!(benches);
