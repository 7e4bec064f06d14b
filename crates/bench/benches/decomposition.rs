//! Divide & conquer via the decomposition theorems (Prop. 8–12) versus
//! direct evaluation — the trade-off a preference query optimizer must
//! price ("cost-based optimization to choose between direct
//! implementations of the Pareto operator and divide & conquer
//! algorithms exploiting the decomposition principles", §7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pref_bench::table;
use pref_core::prelude::*;
use pref_query::algorithms::bnl;
use pref_query::Engine;
use pref_workload::Distribution;
use std::hint::black_box;

fn bench_pareto_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("decomposition/pareto2");
    group.sample_size(10);
    let p = lowest("d0").pareto(highest("d1"));
    // Capacity 0: every iteration decomposes from scratch.
    let cold = Engine::new().with_capacity(0);
    for n in [500usize, 2_000, 8_000] {
        let r = table(n, 2, Distribution::Independent, 3);
        group.bench_with_input(BenchmarkId::new("direct-bnl", n), &r, |b, r| {
            b.iter(|| black_box(bnl::bnl(&p, r).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("prop12", n), &r, |b, r| {
            b.iter(|| black_box(cold.sigma_decomposed(&p, r).unwrap()))
        });
    }
    group.finish();
}

fn bench_yy_cost(c: &mut Criterion) {
    // "Efficiently evaluating YY(P1, P2)_R is a difficult recursive task
    // in general" — measure the quadratic YY scan in isolation.
    let mut group = c.benchmark_group("decomposition/yy");
    group.sample_size(10);
    let cold = Engine::new().with_capacity(0);
    for n in [500usize, 2_000] {
        let r = table(n, 2, Distribution::Anticorrelated, 5);
        let p1 = lowest("d0").prior(highest("d1"));
        let p2 = highest("d1").prior(lowest("d0"));
        group.bench_with_input(BenchmarkId::new("yy", n), &r, |b, r| {
            b.iter(|| black_box(cold.yy(&p1, &p2, r).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pareto_decomposition, bench_yy_cost);
criterion_main!(benches);
