//! Property-based verification of the prepared-query engine: a
//! [`Prepared`] query must agree with a fresh `sigma` on randomized
//! relations and terms — including after mutations that move the
//! relation to a new generation, where a stale cached matrix would be
//! the failure mode.

mod common;

use common::{arb_pref, arb_relation, sigma, test_schema};
use preferences::core::eval::CompiledPref;
use preferences::core::graph::BetterGraph;
use preferences::prefsql::PrefSql;
use preferences::prelude::*;
use preferences::query::algorithms::bnl::bnl_matrix;
use preferences::query::bmo::sigma_naive_generic;
use preferences::query::engine::Engine;
use preferences::query::groupby::sigma_groupby_definitional;
use preferences::query::CacheStatus;
use preferences::relation::Constraint;
use proptest::prelude::*;

/// Rows over the test schema, as `arb_relation` draws them.
fn arb_rows(rows: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(i64, i64, usize)>> {
    proptest::collection::vec((0i64..6, 0i64..6, 0usize..4), rows)
}

/// Append `rows` to `r`, one push (one mutation) each.
fn append(r: &mut Relation, rows: &[(i64, i64, usize)]) {
    let cats = ["x", "y", "z", "w"];
    for &(a, b, c) in rows {
        r.push_values(vec![Value::from(a), Value::from(b), Value::from(cats[c])])
            .expect("row matches test schema");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prepared_execution_agrees_with_fresh_sigma(p in arb_pref(), r in arb_relation(14)) {
        let engine = Engine::new();
        let q = engine.prepare(&p, &test_schema()).expect("term compiles");
        let oracle = sigma_naive_generic(&p, &r).expect("term compiles");

        let (first, ex1) = q.execute(&r).expect("prepared execution runs").into_parts();
        prop_assert_eq!(&first, &oracle, "first execution diverged for {}", p);
        prop_assert_eq!(ex1.generation, r.generation());

        // Re-execution over the unchanged relation: identical answer, and
        // whenever a matrix was built the second run must be a cache hit.
        let (second, ex2) = q.execute(&r).expect("prepared execution runs").into_parts();
        prop_assert_eq!(&second, &oracle, "re-execution diverged for {}", p);
        if ex1.materialized {
            prop_assert_eq!(ex1.cache, CacheStatus::Miss);
        } else {
            prop_assert_eq!(ex1.cache, CacheStatus::Bypass);
        }
        // The result tier serves *every* repeat execution — matrix-backed
        // or not — and replays the producing execution's backend flags.
        prop_assert_eq!(ex2.cache, CacheStatus::Hit,
            "unchanged relation must serve {} from the result cache", p);
        prop_assert_eq!(ex2.materialized, ex1.materialized);
    }

    #[test]
    fn cache_invalidation_never_yields_stale_bmo_sets(
        p in arb_pref(),
        mut r in arb_relation(10),
        extra in arb_rows(1..7),
    ) {
        let engine = Engine::new();
        let q = engine.prepare(&p, &test_schema()).expect("term compiles");

        // Populate the cache on the original generation.
        let (before, _) = q.execute(&r).expect("prepared execution runs").into_parts();
        prop_assert_eq!(&before, &sigma_naive_generic(&p, &r).expect("compiles"));

        // Mutate: new rows can dominate old maxima (the paper's Example 9
        // non-monotonicity), so a stale matrix would change the BMO set.
        append(&mut r, &extra);
        let oracle = sigma_naive_generic(&p, &r).expect("term compiles");
        let (after, ex) = q.execute(&r).expect("prepared execution runs").into_parts();
        prop_assert_eq!(&after, &oracle, "stale result after mutation for {}", p);
        prop_assert!(ex.cache != CacheStatus::Hit,
            "a mutated relation must never hit the old generation's cache");

        // And the new generation caches in its own right: the repeat is
        // an exact result-tier hit stamped with the new generation.
        let again = q.execute(&r).expect("prepared execution runs");
        prop_assert_eq!(again.cache(), CacheStatus::Hit);
        prop_assert_eq!(again.generation(), r.generation());
        prop_assert_eq!(&again.into_rows(), &oracle);
    }

    #[test]
    fn derived_view_caching_agrees_with_uncached_materialized_copies(
        p in arb_pref(),
        mut r in arb_relation(12),
        extra in arb_rows(1..6),
        mut thresholds in proptest::collection::vec(0i64..6, 1..4),
    ) {
        // Distinct predicates over the same base generation must cache
        // independently, and every cached answer must equal the Def. 15
        // oracle over a lineage-less materialized copy of the same
        // filtered rows.
        thresholds.sort_unstable();
        thresholds.dedup();
        let engine = Engine::new();
        let q = engine.prepare(&p, &test_schema()).expect("term compiles");

        // Panicking asserts inside the helper surface as proptest
        // failures just like `prop_assert!` would.
        let check_round = |r: &Relation, th: i64| {
            let fp = pref_relation::predicate_fingerprint(format!("a <= {th}").as_bytes());
            let pred = |t: &pref_relation::Tuple| t[0] <= Value::from(th);

            let oracle = sigma_naive_generic(&p, &r.select(pred)).expect("oracle runs");
            let d1 = r.select_derived(pred, fp);
            let (rows1, ex1) = q.execute(&d1).expect("derived execution runs").into_parts();
            assert_eq!(rows1, oracle, "first derivation diverged for {p}");
            if ex1.materialized {
                assert_eq!(ex1.cache, CacheStatus::Miss,
                    "a fresh base state must not serve old derived entries for {p}");
            }

            // Re-derivation: same subset, fresh generation — warm iff a
            // matrix exists for this backend.
            let d2 = r.select_derived(pred, fp);
            assert_ne!(d1.generation(), d2.generation());
            let (rows2, ex2) = q.execute(&d2).expect("derived re-execution runs").into_parts();
            assert_eq!(rows2, oracle, "re-derivation diverged for {p}");
            if ex2.materialized {
                assert_eq!(ex2.cache, CacheStatus::DerivedHit,
                    "re-derived subset must resolve via lineage for {p}");
            } else {
                assert_eq!(ex2.cache, CacheStatus::Bypass);
            }
        };

        for &th in &thresholds {
            check_round(&r, th);
        }

        // Mutating the base must invalidate every derived entry: the
        // first post-mutation execution per predicate rebuilds.
        append(&mut r, &extra);
        for &th in &thresholds {
            check_round(&r, th);
        }
    }

    #[test]
    fn windowed_execution_agrees_with_fresh_materialization(
        p in arb_pref(),
        mut r in arb_relation(12),
        extra in arb_rows(1..6),
        subset_seeds in proptest::collection::vec(
            proptest::collection::vec(0usize..64, 0..12), 1..4),
        stack_seed in proptest::collection::vec(0usize..64, 0..8),
    ) {
        // Windowed execution over arbitrary row subsets of a warmed base
        // must equal the Def. 15 oracle over a materialized copy of the same rows —
        // across base mutations (the generation bump must sever every
        // window) and across stacked derivations.
        let engine = Engine::new();
        let q = engine.prepare(&p, &test_schema()).expect("term compiles");

        let check_round = |r: &Relation, subsets: &[Vec<usize>], fp_salt: u64| {
            // Warm the whole-base matrix for this content state through
            // the matrix route: after a mutation an execution would be
            // answered by result maintenance and warm nothing.
            q.matrix(r);
            let base_materialized = q.explain(r).materialized;

            for (si, seeds) in subsets.iter().enumerate() {
                if r.is_empty() {
                    continue;
                }
                let idx: Vec<usize> = seeds.iter().map(|s| s % r.len()).collect();
                let d = r.take_rows_derived(&idx, fp_salt ^ (si as u64 + 1));

                // The derivation is O(k) id construction over shared
                // storage — no per-tuple clones.
                assert!(d.shares_storage_with(r), "derivation copied tuples for {p}");
                assert_eq!(d.row_ids().map(<[u32]>::len), Some(idx.len()));

                // Oracle: Def. 15 over a lineage-less materialized copy.
                let oracle = sigma_naive_generic(
                    &p,
                    &Relation::from_rows(test_schema(), d.to_owned_rows())
                        .expect("copy of valid rows"),
                ).expect("oracle runs");
                let (rows, ex) = q.execute(&d).expect("windowed execution runs").into_parts();
                assert_eq!(rows, oracle, "windowed result diverged for {p}");
                if base_materialized {
                    assert_eq!(ex.cache, CacheStatus::WindowHit,
                        "warmed base must serve the subset via a window for {p}");
                } else {
                    assert_eq!(ex.cache, CacheStatus::Bypass);
                }

                // A stacked derivation windows onto the *root* base.
                if !d.is_empty() {
                    let idx2: Vec<usize> = stack_seed.iter().map(|s| s % d.len()).collect();
                    let dd = d.take_rows_derived(&idx2, fp_salt ^ 0x5157);
                    assert!(dd.shares_storage_with(r));
                    let oracle2 = sigma_naive_generic(
                        &p,
                        &Relation::from_rows(test_schema(), dd.to_owned_rows())
                            .expect("copy of valid rows"),
                    ).expect("oracle runs");
                    let (rows2, ex2) = q.execute(&dd).expect("stacked execution runs").into_parts();
                    assert_eq!(rows2, oracle2, "stacked window diverged for {p}");
                    if base_materialized {
                        assert_eq!(ex2.cache, CacheStatus::WindowHit);
                    }
                }
            }
        };

        check_round(&r, &subset_seeds, 0x1000);

        // Mutate the base: its generation moves, so every window rooted
        // in the old state is unreachable — post-mutation derivations
        // must run against the new content (re-warmed inside the round),
        // and results must reflect the mutated rows.
        append(&mut r, &extra);
        check_round(&r, &subset_seeds, 0x2000);

        // Mutating a *view* severs its lineage (and window) and detaches
        // its storage: the executed result still matches its frozen
        // content.
        if !r.is_empty() {
            let mut v = r.take_rows_derived(&[0, r.len() - 1], 0x3000);
            v.push_values(vec![Value::from(1), Value::from(1), Value::from("x")])
                .expect("row matches test schema");
            assert!(v.window_ids().is_none(), "mutation must sever the window");
            let oracle = sigma_naive_generic(&p, &v).expect("oracle runs");
            let (rows, _) = q.execute(&v).expect("mutated view runs").into_parts();
            assert_eq!(rows, oracle);
        }
    }

    #[test]
    fn columnar_groupby_agrees_with_the_definitional_form(
        p in arb_pref(),
        r in arb_relation(12),
    ) {
        // Def. 16: σ[P groupby A](R) = σ[A↔ & P](R). The left side runs
        // the planned term on the engine-cached matrix, the right generic
        // BNL over the term walk.
        let attrs = AttrSet::new(["c"]);
        let q = Engine::new().prepare(&p, r.schema()).expect("term compiles");
        let a = q.grouped(&attrs).and_then(|g| g.execute(&r)).expect("term runs").into_rows();
        let b = sigma_groupby_definitional(&p, &attrs, &r).expect("term compiles");
        prop_assert_eq!(a, b, "groupby paths diverged for {}", p);
    }

    #[test]
    fn threaded_builds_agree_with_the_sequential_build(
        p in arb_pref(),
        r in arb_relation(14),
        threads in 1usize..4,
    ) {
        // The build reads no thread count: `score_matrix_parallel` must
        // expose the identical dominance relation — and drive BNL to the
        // identical BMO set — as the sequential build.
        let c = CompiledPref::compile(&p, &test_schema()).expect("term compiles");
        let default = c.score_matrix(&r);
        let threaded = c.score_matrix_parallel(&r, threads);
        prop_assert_eq!(default.is_some(), threaded.is_some(),
            "threads changed representability for {}", p);
        if let (Some(d), Some(s)) = (&default, &threaded) {
            for x in 0..r.len() {
                for y in 0..r.len() {
                    prop_assert_eq!(d.better(x, y), s.better(x, y),
                        "dominance diverged at ({}, {}) for {} (threads={})",
                        x, y, p, threads);
                }
            }
            prop_assert_eq!(
                preferences::query::algorithms::bnl::bnl_matrix(s),
                preferences::query::algorithms::bnl::bnl_matrix(d),
                "batch BNL diverged across builds for {}", p);
        }
    }

    #[test]
    fn matrices_after_appends_equal_fresh_builds(
        p in arb_pref(),
        mut r in arb_relation(12),
        history in arb_rows(1..6),
    ) {
        // Over any append history, with the previous state's matrix
        // resident, the matrix `Prepared::matrix` serves after each append
        // never yields a stale BMO set, and equals a fresh build — on
        // `better` for all pairs and on every key. Executions would be
        // answered by result maintenance first.
        let engine = Engine::new();
        let q = engine.prepare(&p, &test_schema()).expect("term compiles");
        q.matrix(&r);
        for row in history {
            append(&mut r, &[row]);
            if let Some(served) = &q.matrix(&r) {
                prop_assert_eq!(&bnl_matrix(served), &sigma_naive_generic(&p, &r).expect("compiles"),
                    "stale result after an append for {}", p);
                let served = served.matrix();
                let fresh = q.compiled().score_matrix(&r).expect("the engine materialized it");
                prop_assert_eq!(served.key_slots(), fresh.key_slots());
                for x in 0..r.len() {
                    for slot in 0..fresh.key_slots() {
                        prop_assert_eq!(served.key_at(x, slot), fresh.key_at(x, slot),
                            "key ({}, {}) diverged from a fresh build for {}", x, slot, p);
                    }
                    for y in 0..r.len() {
                        prop_assert_eq!(served.better(x, y), fresh.better(x, y),
                            "dominance ({}, {}) diverged from a fresh build for {}", x, y, p);
                    }
                }
            }
        }
    }

    #[test]
    fn windows_read_base_rows_through_the_id_map(
        p in arb_pref(),
        r in arb_relation(14),
        seeds in proptest::collection::vec(0usize..64, 1..10),
    ) {
        // A row-id window over a base matrix gathers arbitrary (repeated,
        // unordered) base rows through its id map; its reads must equal
        // the Def. 15 oracle over a materialized copy.
        if r.is_empty() {
            return Ok(());
        }
        let engine = Engine::new();
        let q = engine.prepare(&p, &test_schema()).expect("term compiles");
        let (_, ex_base) = q.execute(&r).expect("base execution runs").into_parts();

        let idx: Vec<usize> = seeds.iter().map(|s| s % r.len()).collect();
        let d = r.take_rows_derived(&idx, 0xD1CE);
        let oracle = sigma_naive_generic(
            &p,
            &Relation::from_rows(test_schema(), d.to_owned_rows()).expect("copy of valid rows"),
        )
        .expect("oracle runs");
        let (rows, ex) = q.execute(&d).expect("windowed execution runs").into_parts();
        prop_assert_eq!(rows, oracle, "window diverged for {}", p);
        if ex_base.materialized {
            prop_assert_eq!(ex.cache, CacheStatus::WindowHit,
                "warmed base must serve the subset via a window for {}", p);
        }
    }

    #[test]
    fn parameterized_prepare_bind_agrees_with_fresh_execution(
        rows in proptest::collection::vec((0i64..40, 0i64..40, 0usize..4), 1..14),
        draws in proptest::collection::vec(
            (0i64..50, 0i64..50, 0usize..4, 1usize..4, 0i64..40, 0i64..20),
            1..4,
        ),
        extra in proptest::collection::vec((0i64..40, 0i64..40, 0usize..4), 1..4),
    ) {
        // prepare + bind ≡ inline literals: a statement prepared once
        // with `$n` in its literal positions, bound per request, must
        // return the rows of its inline-literal spelling parsed from
        // scratch and evaluate the very same term — so the inline
        // spelling, re-run on the same session, is served warm. Every
        // preference literal position takes a `$n`: IN sets (POS, NEG),
        // both ELSE forms (POS/POS, POS/NEG), AROUND, BETWEEN, EXPLICIT
        // edges, a CASCADE clause and PRIOR TO; one slot is repeated
        // inside a Pareto accumulation, which Prop. 3l collapses. This
        // holds across random bindings and across a catalog mutation
        // that invalidates every cached matrix.
        let make_table = |rows: &[(i64, i64, usize)]| {
            let mut r = Relation::empty(
                Schema::new(vec![
                    ("price", DataType::Int),
                    ("mileage", DataType::Int),
                    ("color", DataType::Str),
                ])
                .expect("static schema"),
            );
            for (p, m, c) in rows {
                r.push_values(vec![Value::from(*p), Value::from(*m), Value::from(CATS[*c])])
                    .expect("row matches schema");
            }
            r
        };
        type Draw = (i64, i64, usize, usize, i64, i64);
        type ValuesOf = fn(&Draw) -> Vec<Value>;
        const CATS: [&str; 4] = ["x", "y", "z", "w"];
        // (statement, its `$n` values for one draw); ELSE branches and
        // EXPLICIT edges get distinct values, as their constructors ask.
        let statements: [(&str, ValuesOf); 6] = [
            (
                "SELECT * FROM cars WHERE price <= $1 \
                 PREFERRING price AROUND $2 AND LOWEST(mileage)",
                |&(cap, target, ..)| vec![Value::from(cap), Value::from(target)],
            ),
            (
                "SELECT * FROM cars PREFERRING color IN ($1, $2) \
                 AND mileage BETWEEN $3 AND $4",
                |&(_, _, c, dc, lo, span)| {
                    vec![
                        Value::from(CATS[c]),
                        Value::from(CATS[(c + dc) % 4]),
                        Value::from(lo),
                        Value::from(lo + span),
                    ]
                },
            ),
            (
                "SELECT * FROM cars PREFERRING color NOT IN ($1) PRIOR TO price AROUND $2",
                |&(_, target, c, ..)| vec![Value::from(CATS[c]), Value::from(target)],
            ),
            (
                "SELECT * FROM cars PREFERRING color = $1 ELSE color = $2 \
                 CASCADE mileage AROUND $3",
                |&(_, target, c, dc, ..)| {
                    vec![
                        Value::from(CATS[c]),
                        Value::from(CATS[(c + dc) % 4]),
                        Value::from(target),
                    ]
                },
            ),
            (
                "SELECT * FROM cars PREFERRING color = $1 ELSE color <> $2 \
                 AND EXPLICIT(price, ($3, $4))",
                |&(_, _, c, dc, lo, span)| {
                    vec![
                        Value::from(CATS[c]),
                        Value::from(CATS[(c + dc) % 4]),
                        Value::from(lo),
                        Value::from(lo + span + 1),
                    ]
                },
            ),
            (
                "SELECT * FROM cars WHERE mileage >= $2 \
                 PREFERRING price AROUND $1 AND LOWEST(mileage) AND price AROUND $1",
                |&(_, target, _, _, lo, _)| vec![Value::from(target), Value::from(lo)],
            ),
        ];
        // The inline spelling: every `$n` replaced by the literal its
        // value stands for (highest index first, so `$1` never eats
        // into a `$1x`).
        let inline = |sql: &str, values: &[Value]| {
            let mut out = sql.to_string();
            for (i, v) in values.iter().enumerate().rev() {
                let lit = match v {
                    Value::Str(s) => format!("'{s}'"),
                    other => other.to_string(),
                };
                out = out.replace(&format!("${}", i + 1), &lit);
            }
            out
        };

        let mut db = PrefSql::new();
        db.register("cars", make_table(&rows));
        let prepared: Vec<_> = statements
            .iter()
            .map(|(sql, _)| db.prepare(sql).expect("statement parses"))
            .collect();
        for stmt in &prepared {
            prop_assert!(stmt.is_precompiled(), "parameterized statements precompile");
        }

        let check_bindings = |db: &PrefSql, table_rows: &[(i64, i64, usize)]| {
            for ((sql, values_of), stmt) in statements.iter().zip(&prepared) {
                let mut statement_fp = None;
                for draw in &draws {
                    let values = values_of(draw);
                    let inline_sql = inline(sql, &values);
                    let bound = stmt.execute(db, &values).expect("binding runs");
                    // Oracle: a cold session parsing the inline literals.
                    let mut fresh = PrefSql::new();
                    fresh.register("cars", make_table(table_rows));
                    let cold = fresh.execute(&inline_sql).expect("fresh execution runs");
                    prop_assert_eq!(
                        format!("{}", bound.relation),
                        format!("{}", cold.relation),
                        "prepare+bind diverged from fresh execution of {}",
                        &inline_sql
                    );
                    // The bound execution reports its statement, stable
                    // across bindings, and the values it bound.
                    let ex = bound.explain.as_ref().expect("BMO stage ran");
                    let fp = ex.shape_fingerprint.expect("a bound execution reports itself");
                    prop_assert_eq!(*statement_fp.get_or_insert(fp), fp);
                    prop_assert_eq!(ex.binding.as_deref(), Some(&values[..]));
                    // One term, one fingerprint: the inline spelling on
                    // the same session is served warm.
                    let warm = db.execute(&inline_sql).expect("inline execution runs");
                    prop_assert_eq!(&warm.preference, &bound.preference);
                    prop_assert_eq!(
                        format!("{}", warm.relation),
                        format!("{}", bound.relation)
                    );
                    let wex = warm.explain.expect("BMO stage ran");
                    if ex.materialized {
                        prop_assert!(
                            wex.cache.is_warm(),
                            "inline re-run of {} must run warm, got {}", &inline_sql, wex
                        );
                    }
                }
            }
            Ok(())
        };

        check_bindings(&db, &rows)?;

        // Mutation: re-register with extra rows. Every cached matrix is
        // rooted in the old generation, so bindings must re-materialize
        // against the new content — stale results are the failure mode.
        let mut mutated = rows.clone();
        mutated.extend(extra.iter().cloned());
        db.register("cars", make_table(&mutated));
        check_bindings(&db, &mutated)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sql_group_by_and_but_only_agree_with_their_definitions(
        r in arb_relation(14),
        extra in arb_rows(1..4),
        target in 0i64..6,
        bound in 0i64..4,
    ) {
        // GROUP BY, TOP and BUT ONLY run on the statement's one prepared
        // query: `PREFERRING … GROUP BY` must be Def. 16's σ[A↔ & P],
        // `TOP k … GROUP BY` the first k rows of A↔ & P's better-than
        // graph in (level, row) order, and `BUT ONLY DISTANCE(a) <= k`
        // the value filter over the inline statement's BMO rows — ad hoc
        // and with `$n` bindings (`$1` the AROUND target, `$2` the TOP
        // count or the DISTANCE bound, `$3` the LEVEL bound), before and
        // after an in-place append (whose BMO stage is maintained).
        let statements = [
            "SELECT * FROM t PREFERRING a AROUND $1 AND LOWEST(b) GROUP BY c",
            "SELECT * FROM t PREFERRING HIGHEST(b) GROUP BY c CASCADE a AROUND $1",
            "SELECT TOP $2 * FROM t PREFERRING a AROUND $1 AND LOWEST(b) GROUP BY c",
            "SELECT * FROM t PREFERRING a AROUND $1 AND b AROUND 3 \
             BUT ONLY DISTANCE(a) <= $2",
            "SELECT * FROM t PREFERRING c IN ('x') PRIOR TO a AROUND $1 \
             BUT ONLY DISTANCE(a) <= $2 AND LEVEL(c) <= $3",
        ];
        let params = [target, bound, 1].map(Value::from);
        let mut db = PrefSql::new();
        db.register("t", r);
        for round in 0..2 {
            if round == 1 {
                for &(a, b, c) in &extra {
                    let cat = ["x", "y", "z", "w"][c];
                    db.append_row("t", vec![Value::from(a), Value::from(b), Value::from(cat)])
                        .expect("row matches test schema");
                }
            }
            let r = db.catalog().get("t").expect("registered").clone();
            for sql in statements {
                let stmt = db.prepare(sql).expect("parses");
                let params = &params[..stmt.param_count()];
                let inline = (1..=params.len()).rev().fold(sql.to_string(), |sql, n| {
                    sql.replace(&format!("${n}"), &params[n - 1].to_string())
                });
                let bound_res = stmt.execute(&db, params).expect("bound statement runs");
                let adhoc = db.execute(&inline).expect("inline statement runs");
                let pref = adhoc.preference.clone().expect("preference statement");
                prop_assert_eq!(&bound_res.preference, &adhoc.preference);

                let by = AttrSet::single(attr("c"));
                let rows = if sql.contains("TOP") {
                    let grouped = Pref::Antichain(by).prior(pref.clone());
                    let c = CompiledPref::compile(&grouped, r.schema()).expect("term compiles");
                    let g = BetterGraph::from_relation(&c, &r).expect("terms are SPOs");
                    let mut order: Vec<usize> = (0..r.len()).collect();
                    order.sort_by_key(|&i| (g.level(i), i));
                    order.truncate(bound as usize);
                    order
                } else if sql.contains("GROUP BY") {
                    let mut rows = sigma_groupby_definitional(&pref, &by, &r)
                        .expect("term compiles");
                    rows.sort_unstable();
                    rows
                } else {
                    let bmo = sigma_naive_generic(&pref, &r).expect("term compiles");
                    let mut filter = QualityFilter::new()
                        .and(QualityCond::DistanceLe(attr("a"), bound as f64));
                    if sql.contains("LEVEL") {
                        filter = filter.and(QualityCond::LevelLe(attr("c"), 1));
                    }
                    filter.filter_rows(&pref, &r, &bmo).expect("quality defined")
                };
                let expected = r.take_rows(&rows).to_string();
                prop_assert_eq!(adhoc.relation.to_string(), expected.clone(), "{}", &inline);
                prop_assert_eq!(bound_res.relation.to_string(), expected, "{}", sql);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cost-based planner is a pure selection layer: whatever
    /// algorithm it picks from the maintained statistics, the BMO set
    /// must be byte-identical to an engine forced onto BNL — on random
    /// terms, random relations, and (below, in
    /// `constraint_elision_preserves_results`) random constraint
    /// registries.
    #[test]
    fn planner_choice_agrees_with_forced_bnl(p in arb_pref(), r in arb_relation(14)) {
        let planned = Engine::new();
        let pinned = Engine::with_optimizer(
            Optimizer::new().with_algorithm(preferences::query::Algorithm::Bnl));
        prop_assert_eq!(
            sigma(&planned, &p, &r),
            sigma(&pinned, &p, &r),
            "planner-chosen algorithm diverged from forced BNL for {}", p);
    }

    /// Every recorded rewrite-derivation step preserves `σ[P](R)`:
    /// replaying the trace term by term, each step's before/after pair
    /// selects the identical BMO set (the steps chain, so this verifies
    /// the whole derivation, not just its endpoints).
    #[test]
    fn derivation_steps_preserve_sigma(p in arb_pref(), r in arb_relation(12)) {
        let (simplified, trace) = simplify_traced(&p);
        let mut expect = sigma_naive_generic(&p, &r).expect("term compiles");
        for step in &trace {
            let before = sigma_naive_generic(&step.before, &r).expect("term compiles");
            prop_assert_eq!(&before, &expect,
                "trace broke the chain before '{}' for {}", step.law, p);
            let after = sigma_naive_generic(&step.after, &r).expect("term compiles");
            prop_assert_eq!(&after, &before,
                "law '{}' changed σ[P](R) for {}", step.law, p);
            expect = after;
        }
        prop_assert_eq!(
            &sigma_naive_generic(&simplified, &r).expect("term compiles"),
            &expect, "simplified endpoint diverged for {}", p);
    }

    /// Constraint-gated elision is result-preserving: on a relation that
    /// actually satisfies `CONSTANT` constraints on every attribute, the
    /// planning engine (which elides every winnow outright) answers
    /// exactly like an engine forced to run BNL on the same rows.
    #[test]
    fn constraint_elision_preserves_results(
        p in arb_pref(),
        vals in (0i64..6, 0i64..6, 0usize..4),
        n in 0usize..10,
    ) {
        let cats = ["x", "y", "z", "w"];
        let schema = test_schema()
            .with_constraint(Constraint::Constant { attr: attr("a") })
            .expect("attr exists")
            .with_constraint(Constraint::Constant { attr: attr("b") })
            .expect("attr exists")
            .with_constraint(Constraint::Constant { attr: attr("c") })
            .expect("attr exists");
        let mut r = Relation::empty(schema.clone());
        for _ in 0..n {
            r.push_values(vec![
                Value::from(vals.0), Value::from(vals.1), Value::from(cats[vals.2]),
            ]).expect("row matches schema");
        }
        let planned = Engine::new();
        let q = planned.prepare(&p, &schema).expect("term compiles");
        let (rows, ex) = q.execute(&r).expect("planned engine runs").into_parts();
        let pinned = Engine::with_optimizer(
            Optimizer::new().with_algorithm(preferences::query::Algorithm::Bnl));
        prop_assert_eq!(
            &rows,
            &sigma(&pinned, &p, &r),
            "elision changed σ[P](R) for {}", p);
        // All-attributes-constant proves any constructor redundant, so
        // the plan must report the elimination and skip every algorithm.
        prop_assert_eq!(rows, (0..r.len()).collect::<Vec<_>>());
        prop_assert_eq!(ex.algorithm, preferences::query::Algorithm::Elided);
        prop_assert_eq!(ex.cache, CacheStatus::Bypass);
        prop_assert!(ex.plan.plan.steps.iter().any(|s| s.rule.contains("eliminated")),
            "derivation must record the elimination for {}", p);
        let stats = planned.cache_stats();
        prop_assert_eq!(stats.misses + stats.hits, 0,
            "an elided winnow must not touch the matrix cache for {}", p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The maintained result must be indistinguishable from a
    /// from-scratch recompute across random interleavings of appends
    /// (dominated and deliberately dominating) and deletes — every
    /// execution after every mutation, whether it was served by delta
    /// maintenance or by a full rebuild, equals the naive sigma over the
    /// current content.
    #[test]
    fn maintained_results_agree_with_recompute_across_interleavings(
        p in arb_pref(),
        mut r in arb_relation(10),
        ops in proptest::collection::vec(
            (0usize..3, 0i64..6, 0i64..6, 0usize..4, 0usize..16), 1..12),
    ) {
        let cats = ["x", "y", "z", "w"];
        let engine = Engine::new();
        let q = engine.prepare(&p, &test_schema()).expect("term compiles");
        // Seed the result tier on the initial content.
        q.execute(&r).expect("prepared execution runs");

        for (kind, a, b, ci, at) in ops {
            match kind {
                0 => r
                    .push_values(vec![
                        Value::from(a), Value::from(b), Value::from(cats[ci]),
                    ])
                    .expect("row matches test schema"),
                1 if !r.is_empty() => r.delete_row(at % r.len()),
                // A deliberately strong row: 0 is optimal for LOWEST and
                // near every AROUND target, so it frequently prunes old
                // maxima (the paper's Example 9 non-monotonicity).
                2 => r
                    .push_values(vec![
                        Value::from(0i64), Value::from(0i64), Value::from(cats[ci]),
                    ])
                    .expect("row matches test schema"),
                _ => continue,
            }
            let oracle = sigma_naive_generic(&p, &r).expect("term compiles");
            let got = q.execute(&r).expect("prepared execution runs");
            prop_assert_eq!(got.rows(), &oracle[..],
                "maintained result diverged after op kind {} for {}", kind, p);
            prop_assert_eq!(got.generation(), r.generation());
        }
    }
}
