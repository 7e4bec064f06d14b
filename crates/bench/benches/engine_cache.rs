//! The `engine_cache` group: end-to-end amortization of a replayed
//! customer query log through the prepared-query engine.
//!
//! `cold` is the deprecated free-function style — every query of every
//! round re-plans, re-compiles, and re-materializes its score matrix.
//! `warm` prepares the log once and replays it through a long-lived
//! [`Engine`], so every round after the first serves its matrices from
//! the `(relation generation, term fingerprint)` cache. The spread
//! between the two is the per-round cost the cache removes; `invalidate`
//! bounds it from the other side by mutating the catalog before each
//! round, forcing a fresh generation (every execution misses).

use criterion::{criterion_group, criterion_main, Criterion};
use pref_core::term::{around, lowest, Pref};
use pref_query::{Algorithm, CacheStatus, Engine};
use pref_relation::{attr, predicate_fingerprint, Constraint, DataType, Relation, Schema, Value};
use pref_sql::PrefSql;
use pref_workload::querylog::{
    customer_log, prepare_customer_log, prepare_log, query_log, replay, replay_customers,
};
use pref_workload::{cars, Distribution};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

const LOG_LEN: usize = 24;
const CATALOG_ROWS: usize = 4_000;
/// Rows of the large catalog driving the append scenarios.
const APPEND_INPUT_ROWS: usize = 32_768;
/// Fresh predicates per measured window round.
const WINDOW_PREDICATES: i64 = 8;
/// Rows of the identically-priced fleet behind the planner scenarios —
/// the unconstrained baseline is BNL's quadratic worst case (every row
/// survives), so it stays smaller than the main catalog to keep the
/// measured full run in the tens of milliseconds.
const PLANNER_FLEET_ROWS: usize = 1_500;

/// A candidate view under a predicate the engine has *never seen*: the
/// fingerprint is drawn from a process-wide counter, so no derived-entry
/// (lineage) reuse is possible — only the window tier can serve it warm.
static FRESH_PREDICATE: AtomicU64 = AtomicU64::new(1);

fn fresh_candidates(catalog: &Relation, price_col: usize, threshold: i64) -> Relation {
    // Relaxed: only uniqueness of the nonce matters.
    let nonce = FRESH_PREDICATE.fetch_add(1, Ordering::Relaxed);
    catalog.select_derived(
        move |t| t[price_col] <= Value::from(threshold),
        predicate_fingerprint(format!("bench-window-{nonce}").as_bytes()),
    )
}

fn bench_engine_cache(c: &mut Criterion) {
    let catalog = cars::catalog(CATALOG_ROWS, 7);
    let log = query_log(LOG_LEN, 11);
    let mut group = c.benchmark_group("engine_cache");
    group.sample_size(10);

    // The cold baselines run on a capacity-0 engine: every execution
    // prepares, materializes and evaluates from scratch.
    let cold = Engine::new().with_capacity(0);
    let cold_sigma = |p: &Pref, r: &Relation| -> usize {
        let q = cold.prepare(p, r.schema()).expect("log compiles");
        q.execute(r).expect("cold run").rows().len()
    };
    group.bench_function("cold-free-functions", |b| {
        b.iter(|| {
            let mut total = 0;
            for p in &log {
                total += cold_sigma(p, &catalog);
            }
            black_box(total)
        })
    });

    let engine = Engine::new().with_capacity(2 * LOG_LEN);
    let prepared = prepare_log(&engine, &log, catalog.schema()).expect("log compiles");
    // First round populates the cache; the measured rounds replay warm.
    let expected = replay(&prepared, &catalog).expect("replay runs");
    group.bench_function("warm-prepared-engine", |b| {
        b.iter(|| {
            let total = replay(&prepared, &catalog).expect("replay runs");
            assert_eq!(total, expected, "cache must not change results");
            black_box(total)
        })
    });

    // Mutation before every round: each replay sees a fresh generation,
    // so the cache cannot help — the invalidation-cost bound.
    let engine = Engine::new().with_capacity(2 * LOG_LEN);
    let prepared = prepare_log(&engine, &log, catalog.schema()).expect("log compiles");
    group.bench_function("invalidate-every-round", |b| {
        let mut moving = catalog.clone();
        b.iter(|| {
            let extra = moving.row(0).clone();
            moving.push(extra).expect("same schema");
            black_box(replay(&prepared, &moving).expect("replay runs"))
        })
    });

    // WHERE-heavy log: every query narrows the catalog first (the
    // Preference SQL hard-selection pattern). `cold` re-derives and
    // rebuilds per round; `warm` re-derives too — the candidate sets are
    // fresh relations every time — but their lineage is stable, so the
    // engine serves the matrices from its derived-entry cache.
    let wlog = customer_log(LOG_LEN, 13);
    group.bench_function("where-cold-free-functions", |b| {
        b.iter(|| {
            let mut total = 0;
            for q in &wlog {
                let candidates = q.candidates(&catalog);
                total += cold_sigma(&q.preference, &candidates);
            }
            black_box(total)
        })
    });

    let engine = Engine::new().with_capacity(4 * LOG_LEN);
    let prepared = prepare_customer_log(&engine, &wlog, catalog.schema()).expect("log compiles");
    // First round populates the derived-entry cache; the measured rounds
    // replay warm.
    let expected = replay_customers(&prepared, &catalog).expect("replay runs");
    // Smoke guard (runs under `-- --test` in CI): a warmed-up engine must
    // never report an uncached rebuild for a materializable WHERE query.
    for (q, customer) in &prepared {
        let candidates = customer.candidates_derived(&catalog);
        let ex = q.execute(&candidates).expect("warm execution runs");
        let ex = ex.explain();
        assert!(
            !(ex.materialized && ex.cache == CacheStatus::Miss),
            "expected a warm derived hit after the warm-up round, got {ex}"
        );
    }
    assert!(
        engine.cache_stats().derived_hits > 0,
        "the WHERE-heavy warm path must resolve matrices via lineage"
    );
    group.bench_function("where-warm-prepared-engine", |b| {
        b.iter(|| {
            let total = replay_customers(&prepared, &catalog).expect("replay runs");
            assert_eq!(total, expected, "derived cache must not change results");
            black_box(total)
        })
    });

    // Window tier: *never-seen* WHERE predicates over a warmed base.
    // Every derivation below draws a fresh predicate fingerprint, so the
    // lineage (derived-entry) route can never serve it; `window-cold`
    // runs on a capacity-0 engine and rebuilds a subset matrix per
    // derivation, while `window-fresh-predicate` holds an engine whose
    // whole-catalog matrix is resident — each brand-new predicate
    // resolves via `CacheStatus::WindowHit` (row-id indirection over the
    // cached matrix, zero materialization).
    let wpref = around("price", 20_000).pareto(lowest("mileage"));
    let price_col = catalog
        .schema()
        .index_of(&attr("price"))
        .expect("catalog has a price column");

    let cold_engine = Engine::new().with_capacity(0);
    let q_cold = cold_engine
        .prepare(&wpref, catalog.schema())
        .expect("window preference compiles");
    let warm_engine = Engine::new();
    let q_warm = warm_engine
        .prepare(&wpref, catalog.schema())
        .expect("window preference compiles");
    // One full-catalog execution warms the whole-base matrix.
    assert_eq!(
        q_warm.execute(&catalog).expect("warm-up runs").cache(),
        CacheStatus::Miss
    );

    // Smoke guard (runs under `-- --test` in CI): a fresh predicate over
    // the warmed base must report a window hit — not a rebuild, and not
    // silent generic evaluation.
    let probe = fresh_candidates(&catalog, price_col, 20_000);
    let (warm_rows, ex) = q_warm
        .execute(&probe)
        .expect("window execution runs")
        .into_parts();
    assert!(
        ex.materialized,
        "window probe must run on the matrix backend"
    );
    assert_eq!(
        ex.cache,
        CacheStatus::WindowHit,
        "a never-seen predicate over a warmed base must window, got {ex}"
    );
    assert!(warm_engine.cache_stats().window_hits > 0);
    // And windowing must not change results: the cold rebuild agrees.
    let (cold_rows, ex) = q_cold
        .execute(&fresh_candidates(&catalog, price_col, 20_000))
        .expect("cold execution runs")
        .into_parts();
    assert_eq!(ex.cache, CacheStatus::Miss);
    assert_eq!(warm_rows, cold_rows, "window must not change results");

    group.bench_function("window-cold-rebuild", |b| {
        b.iter(|| {
            let mut total = 0;
            for k in 0..WINDOW_PREDICATES {
                let candidates = fresh_candidates(&catalog, price_col, 12_000 + 2_000 * k);
                total += q_cold.execute(&candidates).expect("cold runs").rows().len();
            }
            black_box(total)
        })
    });
    group.bench_function("window-fresh-predicate", |b| {
        b.iter(|| {
            let mut total = 0;
            for k in 0..WINDOW_PREDICATES {
                let candidates = fresh_candidates(&catalog, price_col, 12_000 + 2_000 * k);
                let (rows, ex) = q_warm.execute(&candidates).expect("warm runs").into_parts();
                assert_eq!(
                    ex.cache,
                    CacheStatus::WindowHit,
                    "every fresh predicate must stay on the window tier"
                );
                total += rows.len();
            }
            black_box(total)
        })
    });

    // Parameterized prepared statements: the statement's *shape* — lex,
    // parse, AST→term rewrite, engine compilation — is built once at
    // prepare time; every request only re-binds literals (a slot patch
    // over the compiled shape). `param-cold-reparse` is the per-request
    // style: a fresh session lexes, parses, rewrites, compiles and
    // materializes per query; `param-warm-prepared-statement` replays the
    // same bindings through one prepared statement, where each candidate
    // view windows onto the resident whole-table matrix.
    let mut db = PrefSql::new();
    db.register("car", catalog.clone());
    let stmt = db
        .prepare(
            "SELECT * FROM car WHERE price <= $1 \
             PREFERRING price AROUND $2 AND LOWEST(mileage)",
        )
        .expect("statement parses");
    assert!(
        stmt.is_precompiled(),
        "parameterized statements must compile their shape at prepare time"
    );
    // Prime the preference binding once: its first-ever sighting builds
    // a matrix (the executor only pays the whole-table warm-keep once a
    // parameterized preference binding proves to recur).
    stmt.execute(&db, &[Value::from(12_000), Value::from(20_000)])
        .expect("priming binding runs");
    // Smoke guard (runs under `-- --test` in CI): after priming, every
    // binding — including every *fresh* WHERE binding — must report a
    // warm cache status and the stable shape fingerprint.
    let mut param_expected = 0;
    let mut shape_fp = None;
    for k in 0..WINDOW_PREDICATES {
        let res = stmt
            .execute(&db, &[Value::from(12_000 + 2_000 * k), Value::from(20_000)])
            .expect("binding runs");
        let ex = res.explain.expect("BMO stage ran");
        assert!(
            ex.cache.is_warm(),
            "parameterized binding must run warm, got {ex}"
        );
        let fp = ex.shape_fingerprint.expect("bound shape reports itself");
        assert_eq!(
            *shape_fp.get_or_insert(fp),
            fp,
            "shape fingerprint must be stable across bindings"
        );
        param_expected += res.relation.len();
    }
    group.bench_function("param-cold-reparse", |b| {
        b.iter(|| {
            let mut fresh = PrefSql::new();
            fresh.register("car", catalog.clone());
            let mut total = 0;
            for k in 0..WINDOW_PREDICATES {
                let sql = format!(
                    "SELECT * FROM car WHERE price <= {} \
                     PREFERRING price AROUND 20000 AND LOWEST(mileage)",
                    12_000 + 2_000 * k
                );
                total += fresh.execute(&sql).expect("query runs").relation.len();
            }
            black_box(total)
        })
    });
    group.bench_function("param-warm-prepared-statement", |b| {
        b.iter(|| {
            let mut total = 0;
            for k in 0..WINDOW_PREDICATES {
                let res = stmt
                    .execute(&db, &[Value::from(12_000 + 2_000 * k), Value::from(20_000)])
                    .expect("binding runs");
                total += res.relation.len();
            }
            assert_eq!(
                total, param_expected,
                "binding replay must be deterministic"
            );
            black_box(total)
        })
    });
    // Incremental matrix rebuilds.
    let big = cars::catalog(APPEND_INPUT_ROWS, 9);
    let shard_pref = around("price", 20_000).pareto(lowest("mileage"));

    // Append amortization: every round appends one row and re-executes.
    // `shard-append-cold` clears the cache first, paying a whole-matrix
    // rebuild per round; `shard-append-warm` keeps the engine's cache, so
    // the relation's delta resolves against the previous round's matrix
    // and only the appended row is encoded (`CacheStatus::ShardHit`).
    //
    // The appended row is dominated by the whole catalog (price far from
    // the AROUND target, worst-case mileage), so the BMO — and with it
    // the skyline cost per round — stays constant no matter how many
    // rounds the sampler runs. Appending a maximal row instead would
    // grow the BNL window with the iteration count and skew whichever
    // arm the sampler runs longer.
    let dominated_row = pref_relation::Tuple::new(vec![
        Value::from("Ford"),
        Value::from("sedan"),
        Value::from("grey"),
        Value::from("manual"),
        Value::from(900_000),
        Value::from(45),
        Value::from(2_000_000),
        Value::from(1988),
        Value::from(50_000),
        Value::from(8),
        Value::from(20),
    ]);
    // Both arms pin the batch-BNL kernel so the scenario contrasts
    // matrix *acquisition* — incremental rebuild vs whole-matrix rebuild
    // — rather than the planner's per-run algorithm choice.
    let cold_engine =
        Engine::with_optimizer(pref_query::Optimizer::new().with_algorithm(Algorithm::Bnl));
    let q_shard_cold = cold_engine
        .prepare(&shard_pref, big.schema())
        .expect("shard preference compiles");
    // Result maintenance would answer these appends before the matrix
    // path — ablate it here so this scenario keeps measuring the PR 6
    // incremental *matrix* route (the maintain-* scenarios below measure
    // the result tier against exactly this arm).
    let warm_engine = Engine::with_optimizer(
        pref_query::Optimizer::new()
            .with_algorithm(Algorithm::Bnl)
            .without_result_cache(),
    );
    let q_shard_warm = warm_engine
        .prepare(&shard_pref, big.schema())
        .expect("shard preference compiles");

    // Smoke guard (runs under `-- --test` in CI): an append over the
    // warmed matrix must take the incremental route and agree with the
    // cold rebuild.
    let mut probe = big.clone();
    q_shard_warm.execute(&probe).expect("warm-up runs");
    probe
        .push(dominated_row.clone())
        .expect("append keeps the schema");
    let (warm_rows, ex) = q_shard_warm
        .execute(&probe)
        .expect("append execution runs")
        .into_parts();
    assert_eq!(
        ex.cache,
        CacheStatus::ShardHit,
        "append over a warmed matrix must rebuild incrementally, got {ex}"
    );
    assert!(warm_engine.cache_stats().shard_hits > 0);
    let (cold_rows, ex) = q_shard_cold
        .execute(&probe)
        .expect("cold execution runs")
        .into_parts();
    assert_eq!(ex.cache, CacheStatus::Miss);
    assert_eq!(
        warm_rows, cold_rows,
        "incremental rebuild must not change results"
    );

    group.bench_function("shard-append-cold", |b| {
        let mut moving = big.clone();
        b.iter(|| {
            moving
                .push(dominated_row.clone())
                .expect("append keeps the schema");
            cold_engine.clear_cache();
            black_box(
                q_shard_cold
                    .execute(&moving)
                    .expect("cold append runs")
                    .rows()
                    .len(),
            )
        })
    });
    group.bench_function("shard-append-warm", |b| {
        let mut moving = big.clone();
        q_shard_warm.execute(&moving).expect("warm-up runs");
        b.iter(|| {
            moving
                .push(dominated_row.clone())
                .expect("append keeps the schema");
            let (rows, ex) = q_shard_warm
                .execute(&moving)
                .expect("warm append runs")
                .into_parts();
            assert_eq!(
                ex.cache,
                CacheStatus::ShardHit,
                "every append must stay on the incremental route"
            );
            black_box(rows.len())
        })
    });

    // Result maintenance: the same dominated-append workload as
    // `shard-append-warm`, but with the maintained-result tier enabled —
    // the engine classifies the appended row against the cached skyline
    // (`CacheStatus::MaintainedHit`), re-running no algorithm and
    // touching no matrix. `maintain-append` against `shard-append-warm`
    // is the tier's headline: O(|result|) dominance tests per append
    // instead of an incremental rebuild plus a full BMO pass.
    let maintain_engine =
        Engine::with_optimizer(pref_query::Optimizer::new().with_algorithm(Algorithm::Bnl));
    let q_maintain = maintain_engine
        .prepare(&shard_pref, big.schema())
        .expect("shard preference compiles");

    // Smoke guard (runs under `-- --test` in CI): the maintained route
    // must fire, report itself through EXPLAIN, and agree with a cold
    // recompute.
    let mut probe = big.clone();
    q_maintain.execute(&probe).expect("warm-up runs");
    probe
        .push(dominated_row.clone())
        .expect("append keeps the schema");
    let (maintained_rows, ex) = q_maintain
        .execute(&probe)
        .expect("maintained execution runs")
        .into_parts();
    assert_eq!(
        ex.cache,
        CacheStatus::MaintainedHit,
        "append over a cached result must maintain, got {ex}"
    );
    assert!(
        ex.to_string().contains("maintained-hit"),
        "EXPLAIN must report the maintained route, got {ex}"
    );
    assert!(maintain_engine.cache_stats().maintained_hits > 0);
    cold_engine.clear_cache();
    assert_eq!(
        maintained_rows,
        q_shard_cold
            .execute(&probe)
            .expect("cold execution runs")
            .into_rows(),
        "result maintenance must not change results"
    );

    group.bench_function("maintain-append", |b| {
        let mut moving = big.clone();
        q_maintain.execute(&moving).expect("warm-up runs");
        b.iter(|| {
            moving
                .push(dominated_row.clone())
                .expect("append keeps the schema");
            let res = q_maintain.execute(&moving).expect("maintained run");
            assert_eq!(
                res.cache(),
                CacheStatus::MaintainedHit,
                "every append must stay on the maintained route"
            );
            black_box(res.rows().len())
        })
    });

    // Delete maintenance: tombstone a non-result row and re-execute.
    // Each iteration works on a fresh clone of the warmed state (clones
    // share storage and generation, so the cached result keeps
    // applying; every seed lookup refreshes its LRU stamp, so the
    // per-iteration results inserted beside it never evict it).
    let warmed = big.clone();
    let warm_res = q_maintain.execute(&warmed).expect("warm-up runs");
    // A dominated row is never in the result; delete the last non-member.
    let victim = (0..warmed.len())
        .rev()
        .find(|i| !warm_res.rows().contains(i))
        .expect("some row is dominated");
    group.bench_function("maintain-delete", |b| {
        b.iter(|| {
            let mut m = warmed.clone();
            m.delete_row(victim);
            let res = q_maintain.execute(&m).expect("maintained run");
            assert_eq!(
                res.cache(),
                CacheStatus::MaintainedHit,
                "a non-member delete must stay on the maintained route"
            );
            black_box(res.rows().len())
        })
    });

    // Planner tier, elimination side: the preference ranges only over a
    // CONSTANT-constrained attribute, so the registered constraint
    // proves σ[P](R) = R and the planner deletes the winnow outright —
    // the prepared query answers with every row, running no algorithm,
    // building no matrix, touching no cache shard. `planner-full-run`
    // is the honest baseline: the *same rows* under a constraint-free
    // schema, winnowed for real every iteration (result tier disabled
    // so the algorithm actually runs; matrices warm, as they would be
    // in a long-lived engine). The fleet is identically priced, so the
    // CONSTANT declaration is true and both sides agree on the answer.
    let plan_fields = vec![("price", DataType::Int), ("mileage", DataType::Int)];
    let free_schema = Schema::new(plan_fields.clone()).expect("schema builds");
    let constrained_schema = Schema::new(plan_fields)
        .expect("schema builds")
        .with_constraint(Constraint::Constant {
            attr: attr("price"),
        })
        .expect("price exists");
    let mut free_fleet = Relation::empty(free_schema);
    let mut constrained_fleet = Relation::empty(constrained_schema);
    for i in 0..PLANNER_FLEET_ROWS as i64 {
        let row = vec![Value::from(10_000i64), Value::from(i)];
        free_fleet.push_values(row.clone()).expect("row matches");
        constrained_fleet.push_values(row).expect("row matches");
    }
    let plan_pref = lowest("price");

    let elim_engine = Engine::new();
    let q_elim = elim_engine
        .prepare(&plan_pref, constrained_fleet.schema())
        .expect("planner preference compiles");
    let full_engine = Engine::with_optimizer(pref_query::Optimizer::new().without_result_cache());
    let q_full = full_engine
        .prepare(&plan_pref, free_fleet.schema())
        .expect("planner preference compiles");

    // Smoke guard (runs under `-- --test` in CI): the constrained side
    // must report the elimination through the EXPLAIN derivation, stay
    // off every cache tier, and agree with the real run.
    let (elim_rows, ex) = q_elim
        .execute(&constrained_fleet)
        .expect("elided run")
        .into_parts();
    assert_eq!(
        ex.algorithm,
        Algorithm::Elided,
        "the constraint registry must elide this winnow, got {ex}"
    );
    assert_eq!(ex.cache, CacheStatus::Bypass, "elision bypasses, got {ex}");
    assert!(
        ex.plan.steps.iter().any(|s| s.rule.contains("eliminated")),
        "the EXPLAIN derivation must state the elimination, got {ex}"
    );
    let full_rows = q_full.execute(&free_fleet).expect("full run").into_rows();
    assert_eq!(elim_rows, full_rows, "elision must not change results");
    assert_eq!(elim_rows.len(), constrained_fleet.len());
    let s = elim_engine.cache_stats();
    assert_eq!(
        s.hits + s.misses,
        0,
        "an elided winnow must generate zero cache traffic"
    );

    group.bench_function("planner-rewrite-elim", |b| {
        b.iter(|| {
            let res = q_elim.execute(&constrained_fleet).expect("elided run");
            assert_eq!(
                res.cache(),
                CacheStatus::Bypass,
                "every run must stay elided"
            );
            black_box(res.rows().len())
        })
    });
    group.bench_function("planner-full-run", |b| {
        b.iter(|| {
            let res = q_full.execute(&free_fleet).expect("full run");
            black_box(res.rows().len())
        })
    });

    // Planner tier, choice side: the standard query log through a
    // cost-based engine versus one pinned to BNL. Result tier disabled
    // on both, matrices warmed on both — the only variable left is
    // *which* algorithm each plan names (plus the planner's own
    // overhead: the statistics probe and the per-query plan cache,
    // which the gate bounds near parity against the pinned baseline).
    let choice_engine = Engine::with_optimizer(pref_query::Optimizer::new().without_result_cache())
        .with_capacity(2 * LOG_LEN);
    let choice_prepared =
        prepare_log(&choice_engine, &log, catalog.schema()).expect("log compiles");
    let pinned_engine = Engine::with_optimizer(
        pref_query::Optimizer::new()
            .with_algorithm(Algorithm::Bnl)
            .without_result_cache(),
    )
    .with_capacity(2 * LOG_LEN);
    let pinned_prepared =
        prepare_log(&pinned_engine, &log, catalog.schema()).expect("log compiles");
    // Warm-up: build matrices, statistics, and plans once.
    let choice_total = replay(&choice_prepared, &catalog).expect("replay runs");
    let pinned_total = replay(&pinned_prepared, &catalog).expect("replay runs");
    assert_eq!(
        choice_total, pinned_total,
        "the planner's algorithm choice must not change results"
    );
    group.bench_function("planner-choice", |b| {
        b.iter(|| {
            let total = replay(&choice_prepared, &catalog).expect("replay runs");
            assert_eq!(total, choice_total, "planned replay must stay stable");
            black_box(total)
        })
    });
    group.bench_function("planner-pinned-bnl", |b| {
        b.iter(|| {
            let total = replay(&pinned_prepared, &catalog).expect("replay runs");
            assert_eq!(total, pinned_total, "pinned replay must stay stable");
            black_box(total)
        })
    });
    group.finish();

    // Keep the synthetic-distribution API linked into this bench so the
    // `-- --test` CI smoke covers it.
    let _ = Distribution::Independent.name();
}

criterion_group!(benches, bench_engine_cache);
criterion_main!(benches);
