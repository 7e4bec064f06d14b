//! The ranked query model (§6.2): rank(F) under BMO semantics versus the
//! k-best relaxation used by multi-feature engines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pref_bench::table;
use pref_core::prelude::*;
use pref_core::term::Pref;
use pref_query::Engine;
use pref_workload::Distribution;
use std::hint::black_box;

fn rank_pref() -> Pref {
    Pref::rank(
        CombineFn::weighted_sum(vec![1.0, 2.0, 0.5]),
        vec![highest("d0"), highest("d1"), around("d2", 0.5)],
    )
    .expect("SCORE-family operands")
}

fn bench_rank(c: &mut Criterion) {
    let mut group = c.benchmark_group("rank");
    group.sample_size(10);
    let p = rank_pref();
    // Capacity 0: every iteration evaluates from scratch.
    let cold = Engine::new().with_capacity(0);
    for n in [1_000usize, 8_000, 32_000] {
        let r = table(n, 3, Distribution::Independent, 17);
        group.bench_with_input(BenchmarkId::new("bmo", n), &r, |b, r| {
            b.iter(|| {
                let q = cold.prepare(&p, r.schema()).unwrap();
                black_box(q.execute(r).unwrap().into_rows())
            })
        });
        group.bench_with_input(BenchmarkId::new("top-10", n), &r, |b, r| {
            b.iter(|| black_box(cold.top_k(&p, r, 10).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rank);
criterion_main!(benches);
