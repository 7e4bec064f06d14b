//! Ablation: the optimizer's two levers (DESIGN.md calls these out) —
//! algebraic rewriting on/off (the same BNL over the simplified and the
//! submitted term), and forced algorithm choices versus automatic
//! selection (one-shot, on capacity-0 engines).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pref_core::algebra::simplify;
use pref_core::prelude::*;
use pref_core::term::Pref;
use pref_query::algorithms::bnl;
use pref_query::{Algorithm, Engine, Optimizer};
use pref_relation::Relation;
use pref_workload::cars;
use std::hint::black_box;

/// A deliberately redundant term: duplicates and a shared-attribute
/// prioritisation that rewriting collapses.
fn redundant_term() -> Pref {
    Pref::Prior(vec![
        Pref::Pareto(vec![lowest("price"), lowest("price"), highest("year")]),
        neg("color", ["gray"]),
        pos("color", ["red"]),
    ])
}

fn bench_rewrite_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer/rewrite");
    group.sample_size(10);
    let p = redundant_term();
    for n in [2_000usize, 8_000] {
        let r = cars::catalog(n, 51);
        group.bench_with_input(BenchmarkId::new("with-rewrite", n), &r, |b, r| {
            b.iter(|| black_box(bnl(&simplify(&p), r).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("no-rewrite", n), &r, |b, r| {
            b.iter(|| black_box(bnl(&p, r).unwrap()))
        });
    }
    group.finish();
}

/// One-shot `σ[P](R)` on a capacity-0 engine: nothing is reused across
/// iterations, so each pays selection, materialization and evaluation.
fn one_shot(opt: Optimizer, p: &Pref, r: &Relation) -> Vec<usize> {
    let engine = Engine::with_optimizer(opt).with_capacity(0);
    let q = engine.prepare(p, r.schema()).unwrap();
    q.execute(r).unwrap().into_rows()
}

fn bench_selection_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer/selection");
    group.sample_size(10);
    let p = lowest("price").pareto(highest("year"));
    let r = cars::catalog(8_000, 52);
    group.bench_function("auto", |b| {
        b.iter(|| black_box(one_shot(Optimizer::new(), &p, &r)))
    });
    for algo in [
        Algorithm::Bnl,
        Algorithm::Dnc,
        Algorithm::Sfs,
        Algorithm::Decomposed,
    ] {
        group.bench_function(format!("forced-{algo}"), |b| {
            b.iter(|| black_box(one_shot(Optimizer::new().with_algorithm(algo), &p, &r)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rewrite_ablation, bench_selection_ablation);
criterion_main!(benches);
