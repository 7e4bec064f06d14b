//! Property-based verification of the BMO query model (Section 5): the
//! declarative semantics' invariants, agreement of every evaluation
//! algorithm with the naive oracle, the decomposition theorems, grouping,
//! and the filter-effect inequalities of Prop. 13.

mod common;

use common::{arb_pref, arb_relation, test_schema};
use preferences::core::base::layered::Layer;
use preferences::core::base::Explicit;
use preferences::core::graph::BetterGraph;
use preferences::prelude::*;
use preferences::query::algorithms::{bnl, dnc, sfs};
use preferences::query::bmo::{sigma_naive_generic, sigma_naive_matrix};
use preferences::query::groupby::sigma_groupby_definitional;
use preferences::query::stats::FilterEffectReport;
use preferences::query::{Engine, Optimizer};
use preferences::workload::cars;
use preferences::workload::synthetic::{self, Distribution};
use proptest::prelude::*;

/// SFS on the score matrix when the term materializes.
fn sfs_on(c: &CompiledPref, r: &Relation) -> Option<Vec<usize>> {
    sfs::try_sfs_with(c, r, c.score_matrix(r).as_ref())
}

/// SFS, D&C (where the shape admits them) and the engine against both
/// the generic BNL and Def. 15 — on relations large enough that the
/// accepted window crosses its block boundaries and D&C's merge runs.
/// Returns |σ|.
fn check_large(p: &Pref, r: &Relation, dnc_applies: bool) -> Result<usize, TestCaseError> {
    let c = CompiledPref::compile(p, r.schema()).expect("term compiles");
    let oracle = sigma_naive_generic(p, r).expect("term compiles");
    prop_assert_eq!(bnl::bnl_generic(&c, r), oracle.clone(), "BNL for {}", p);
    prop_assert_eq!(
        sfs_on(&c, r).expect("scored shape"),
        oracle.clone(),
        "SFS for {}",
        p
    );
    if dnc_applies {
        prop_assert_eq!(
            dnc::try_dnc_compiled(&c, r).expect("skyline shape"),
            oracle.clone(),
            "D&C for {}",
            p
        );
    }
    let q = Engine::new().prepare(p, r.schema()).expect("term compiles");
    let (rows, explain) = q.execute(r).expect("engine runs").into_parts();
    prop_assert_eq!(&rows, &oracle, "engine ({}) for {}", explain.algorithm, p);
    Ok(oracle.len())
}

/// The unforced engine and the engine forced to SFS against Def. 15.
/// Returns the unforced algorithm and whether the rewritten term has key
/// lanes; a forced SFS may refuse only a term without lanes or whose
/// matrix does not build (the term walk then needs a utility).
fn check_routes(p: &Pref, r: &Relation) -> Result<(Algorithm, bool), TestCaseError> {
    let oracle = sigma_naive_generic(p, r).expect("term compiles");
    let q = Engine::new().prepare(p, r.schema()).expect("term compiles");
    let (rows, explain) = q.execute(r).expect("engine runs").into_parts();
    prop_assert_eq!(&rows, &oracle, "engine ({}) for {}", explain.algorithm, p);
    let lanes = q.compiled().lane_shape().is_some();
    let forced = Engine::with_optimizer(Optimizer::new().with_algorithm(Algorithm::Sfs));
    match forced
        .prepare(p, r.schema())
        .expect("term compiles")
        .execute(r)
    {
        Ok(out) => prop_assert_eq!(out.rows(), &oracle[..], "forced SFS for {}", p),
        Err(e) => prop_assert!(
            !lanes || q.compiled().score_matrix(r).is_none(),
            "forced SFS refused {}: {}",
            p,
            e
        ),
    }
    Ok((explain.algorithm, lanes))
}

const CATS: [&str; 4] = ["x", "y", "z", "w"];

/// Strategy: a single-lane base preference — one dominance key per row,
/// no utility needed (POS, NEG, POS/POS, POS/NEG, layered) or scored
/// (AROUND, BETWEEN, LOWEST, HIGHEST).
fn arb_lane() -> impl Strategy<Value = Pref> {
    let cats = || {
        prop::collection::vec(0usize..4, 1..3)
            .prop_map(|ix| ix.into_iter().map(|i| CATS[i]).collect::<Vec<_>>())
    };
    prop_oneof![
        cats().prop_map(|v| pos("c", v)),
        cats().prop_map(|v| neg("c", v)),
        (0usize..4, 1usize..4)
            .prop_map(|(i, k)| (i, (i + k) % 4))
            .prop_map(|(i, j)| { pos_pos("c", [CATS[i]], [CATS[j]]).expect("disjoint sets") }),
        (0usize..4, 1usize..4)
            .prop_map(|(i, k)| (i, (i + k) % 4))
            .prop_map(|(i, j)| { pos_neg("c", [CATS[i]], [CATS[j]]).expect("disjoint sets") }),
        (0usize..4, 1usize..4)
            .prop_map(|(i, k)| (i, (i + k) % 4))
            .prop_map(|(i, j)| {
                layered(
                    "c",
                    vec![Layer::of([CATS[i]]), Layer::Others, Layer::of([CATS[j]])],
                )
                .expect("one others layer")
            }),
        (0i64..6).prop_map(|z| pos("a", [z, z + 2])),
        (0i64..6).prop_map(|z| around("a", z)),
        (0i64..6).prop_map(|z| around("b", z)),
        (0i64..4, 0i64..3).prop_map(|(lo, w)| between("b", lo, lo + w).expect("lo <= hi")),
        Just(lowest("a")),
        Just(highest("b")),
    ]
}

/// Strategy: a flat Pareto of key lanes none of which scores — the
/// terms SFS took only since its utility probe went.
fn arb_lane_pareto() -> impl Strategy<Value = Pref> {
    let unscored = prop_oneof![
        (0usize..4).prop_map(|i| pos("c", [CATS[i]])),
        (0usize..4).prop_map(|i| neg("c", [CATS[i]])),
        (0i64..6).prop_map(|z| pos("a", [z])),
        (0i64..6).prop_map(|z| neg("b", [z, 5 - z])),
        (0usize..3).prop_map(|i| {
            let layers = vec![
                Layer::of([CATS[i]]),
                Layer::of([CATS[i + 1]]),
                Layer::Others,
            ];
            layered("c", layers).expect("one others layer")
        }),
        (0usize..3).prop_map(|i| pos_pos("c", [CATS[i]], [CATS[i + 1]]).expect("disjoint sets")),
    ];
    prop::collection::vec(unscored, 2..4).prop_map(Pref::Pareto)
}

/// `d0` of an independent 3-d table cut to {0, 1, 2, 3} with `zeros` of
/// the rows at 0, `d2` bent to trade off against `d1` (a wide skyline).
fn four_valued_d0(rows: usize, zeros: f64, seed: u64) -> Relation {
    let base = float_rows(&synthetic::table(rows, 3, Distribution::Independent, seed));
    let cut = |u: Vec<f64>| {
        let level = (1.0 + (u[0] - zeros) / (1.0 - zeros) * 3.0).floor();
        let a = if u[0] < zeros { 0.0 } else { level };
        vec![a, u[1], 1.0 - u[1] + 0.05 * u[2]]
    };
    float_table(base.into_iter().map(cut).collect())
}

/// The rows of an all-`Float` relation.
fn float_rows(r: &Relation) -> Vec<Vec<f64>> {
    let row = |t: &Tuple| {
        (t.values().iter())
            .map(|v| v.as_f64().expect("float column"))
            .collect()
    };
    r.iter().map(row).collect()
}

/// Float columns `d0 …` holding `rows`.
fn float_table(rows: Vec<Vec<f64>>) -> Relation {
    let schema = Schema::new((0..rows[0].len()).map(|i| (format!("d{i}"), DataType::Float)));
    let mut r = Relation::empty(schema.expect("valid schema"));
    for row in rows {
        r.push_values(row.into_iter().map(Value::from).collect())
            .expect("row matches schema");
    }
    r
}

proptest! {
    // Each case winnows 26 relations of up to 3 000 rows quadratically.
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn sfs_and_dnc_agree_with_the_oracles_across_window_blocks(seed in 0u64..1_000_000) {
        let pareto = |d: usize, base: fn(&str) -> Pref| {
            Pref::pareto_all((0..d).map(|i| base(format!("d{i}").as_str())).collect()).expect("d >= 1")
        };
        for d in [3usize, 5] {
            for dist in Distribution::all() {
                let r = synthetic::table(3_000, d, dist, seed);
                check_large(&pareto(d, |a| highest(a)), &r, true)?;
                check_large(&pareto(d, |a| around(a, 0.5)), &r, false)?;
            }
        }
        // Past the window's 256-row head, where accepted rows are
        // partitioned by pivot mask: the equality-code arm (d = 6), more
        // lanes than mask bits (d = 10), and a four-valued first
        // dimension, which D&C cannot split below the median.
        let r = synthetic::table(3_000, 6, Distribution::Anticorrelated, seed);
        prop_assert!(check_large(&pareto(6, |a| around(a, 0.2)), &r, false)? > 256);
        let r = synthetic::table(1_500, 10, Distribution::Independent, seed);
        prop_assert!(check_large(&pareto(10, |a| highest(a)), &r, true)? > 256);
        for zeros in [0.3, 0.7] {
            let r = four_valued_d0(3_000, zeros, seed);
            prop_assert!(check_large(&pareto(3, |a| highest(a)), &r, true)? > 256);
        }
        // Integer columns with heavy ties: D&C's equal-dim0 runs and the
        // window's ≥ / > distinction both matter; utilities tie often.
        // The watch term is the pre-filter's bail path: most of its
        // sample survives, and on some seeds (and at 20 000 rows) too
        // much of it for the filter to run.
        let r = cars::catalog(3_000, seed);
        let watch = lowest("price").pareto(lowest("mileage")).pareto(highest("horsepower"));
        check_large(&watch, &r, true)?;
        let near = around("price", 20_000).pareto(around("mileage", 60_000)).pareto(highest("horsepower"));
        check_large(&near, &r, false)?;
        // The pre-filter's filter rows repeated, at the front and the back
        // (equal rows never eliminate each other), and ±∞ keys, which its
        // score must not turn into NaN (nor the presort's key sum).
        let rows = float_rows(&synthetic::table(3_000, 4, Distribution::Independent, seed));
        let sum = |row: &Vec<f64>| row.iter().sum::<f64>();
        let mut best = rows.clone();
        best.sort_by(|a, b| sum(b).total_cmp(&sum(a)));
        let repeated = [&best[..64], &rows, &best[..64]].concat();
        let sprinkled = rows.iter().enumerate().map(|(i, row)| {
            let spike = |(d, &k): (usize, &f64)| match (4 * i + d) % 37 {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                _ => k,
            };
            row.iter().enumerate().map(spike).collect()
        });
        for r in [float_table(repeated), float_table(sprinkled.collect())] {
            check_large(&pareto(4, |a| highest(a)), &r, true)?;
            check_large(&pareto(4, |a| around(a, 0.5)), &r, false)?;
        }
    }
}

/// A chain skyline over `d0 … d{d-1}` (each LOWEST or HIGHEST) and up
/// to 200 `Float` rows drawn from `seed`: `d0` takes 1–3 values (`levels`
/// of −∞, 0, 1, +∞), the other columns 0–3 with a rare ±∞, and every
/// fifth row repeats an earlier one — equal-dim0 runs at every D&C split,
/// whole slices on one dim0, and duplicates on both sides of each test.
fn tied_skyline(d: usize, levels: usize, rows: usize, mut seed: u64) -> (Pref, Relation) {
    let mut next = move |m: u64| {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) % m
    };
    let inf = f64::INFINITY;
    let first = [-inf, 0.0, 1.0, inf];
    let skip = next(first.len() as u64 + 1 - levels as u64) as usize;
    let d0 = &first[skip..skip + levels];
    let mut table: Vec<Vec<f64>> = Vec::with_capacity(rows);
    for i in 0..rows {
        if i > 0 && next(5) == 0 {
            table.push(table[next(i as u64) as usize].clone());
            continue;
        }
        let mut row = vec![d0[next(levels as u64) as usize]];
        row.extend((1..d).map(|_| match next(40) {
            0 => inf,
            1 => -inf,
            k => (k % 4) as f64,
        }));
        table.push(row);
    }
    let lanes = (0..d).map(|i| {
        let col = format!("d{i}");
        if next(2) == 0 {
            lowest(col.as_str())
        } else {
            highest(col.as_str())
        }
    });
    let p = Pref::pareto_all(lanes.collect()).expect("d >= 1");
    (p, float_table(table))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dnc_agrees_with_the_oracle_on_tied_first_dimensions(
        d in 2usize..8,
        levels in 1usize..4,
        rows in 1usize..201,
        seed in 0u64..u64::MAX,
    ) {
        let (p, r) = tied_skyline(d, levels, rows, seed);
        let oracle = sigma_naive_generic(&p, &r).expect("term compiles");
        let c = CompiledPref::compile(&p, r.schema()).expect("term compiles");
        prop_assert_eq!(dnc::try_dnc_compiled(&c, &r).expect("skyline shape"), oracle.clone(), "{}", p);
        let forced = Engine::with_optimizer(Optimizer::new().with_algorithm(Algorithm::Dnc));
        let q = forced.prepare(&p, r.schema()).expect("term compiles");
        prop_assert_eq!(q.execute(&r).expect("D&C runs").into_rows(), oracle, "forced D&C, {}", p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn single_lane_heads_and_unscored_lanes_agree_with_the_oracle(
        heads in prop::collection::vec(arb_lane(), 1..3),
        tail in prop_oneof![arb_lane_pareto(), arb_pref()],
        lanes in arb_lane_pareto(),
        r in arb_relation(40),
    ) {
        // `P1 & … & tail` with one or two single-lane heads: the head
        // split under both routes (a Pareto tail of lanes, or anything
        // that materializes — an intersection anywhere has no matrix).
        let prior = Pref::Prior([heads, vec![tail]].concat());
        let (algorithm, split) = check_routes(&prior, &r)?;
        prop_assert_eq!(split, algorithm != Algorithm::Bnl, "{} ran {}", prior, algorithm);
        // A flat Pareto with no utility: the window kernel, probe-free.
        prop_assert_eq!(check_routes(&lanes, &r)?, (Algorithm::Sfs, true), "{}", lanes);
    }

    #[test]
    fn bmo_result_invariants(p in arb_pref(), r in arb_relation(16)) {
        let res = sigma_naive_generic(&p, &r).expect("term compiles");
        let c = CompiledPref::compile(&p, &test_schema()).expect("term compiles");

        // Nonempty input ⟹ nonempty result (no empty-result problem).
        prop_assert_eq!(res.is_empty(), r.is_empty());

        // Result tuples are pairwise unranked.
        for &i in &res {
            for &j in &res {
                prop_assert!(!c.better(r.row(i), r.row(j)));
            }
        }

        // Every excluded tuple is dominated by some result tuple.
        for i in 0..r.len() {
            if !res.contains(&i) {
                prop_assert!(
                    res.iter().any(|&m| c.better(r.row(i), r.row(m))),
                    "row {} excluded but undominated under {}", i, p
                );
            }
        }
    }

    #[test]
    fn all_algorithms_agree_with_the_oracle(p in arb_pref(), r in arb_relation(16)) {
        // The generic-path naive evaluator is the backend-independent
        // oracle; the same loop on the score matrix (when the term
        // materializes) must match it before anything else is compared.
        let oracle = sigma_naive_generic(&p, &r).expect("term compiles");
        let c = CompiledPref::compile(&p, r.schema()).expect("term compiles");
        let m = c.score_matrix_parallel(&r, 3);
        if let Some(m) = &m {
            prop_assert_eq!(sigma_naive_matrix(m), oracle.clone(),
                "matrix-backed naive diverged for {}", p);
            prop_assert_eq!(bnl::bnl_matrix(m), oracle.clone(), "BNL diverged for {}", p);
            prop_assert_eq!(bnl::bnl_parallel_matrix(m, 3), oracle.clone(),
                "parallel BNL diverged for {}", p);
        }
        prop_assert_eq!(bnl::bnl_generic(&c, &r), oracle.clone(),
            "generic BNL diverged for {}", p);
        prop_assert_eq!(bnl::bnl_parallel_generic(&c, &r, 3), oracle.clone(),
            "generic parallel BNL diverged for {}", p);
        prop_assert_eq!(
            Engine::new().sigma_decomposed(&p, &r).expect("term compiles"),
            oracle.clone(),
            "decomposition (Prop. 8-12) diverged for {}", p
        );
        let q = Engine::new().prepare(&p, r.schema()).expect("term compiles");
        let (opt, explain) = q.execute(&r).expect("engine runs").into_parts();
        prop_assert_eq!(opt, oracle, "engine ({}) diverged for {}", explain.algorithm, p);
    }

    #[test]
    fn dnc_and_sfs_agree_on_skyline_shapes(r in arb_relation(24)) {
        let p = lowest("a").pareto(highest("b"));
        let oracle = sigma_naive_generic(&p, &r).expect("term compiles");
        let c = CompiledPref::compile(&p, r.schema()).expect("term compiles");
        prop_assert_eq!(dnc::try_dnc_compiled(&c, &r).expect("skyline shape"), oracle.clone());
        prop_assert_eq!(sfs_on(&c, &r).expect("scored shape"), oracle);
    }

    #[test]
    fn groupby_matches_definitional_form(
        p in arb_pref(),
        r in arb_relation(14),
    ) {
        // Def. 16: σ[P groupby A](R) = σ[A↔ & P](R), grouping by `c`.
        let by = AttrSet::single(attr("c"));
        let q = Engine::new().prepare(&p, r.schema()).expect("term compiles");
        let q = q.grouped(&by).expect("term compiles");
        prop_assert_eq!(
            q.execute(&r).expect("term runs").into_rows(),
            sigma_groupby_definitional(&p, &by, &r).expect("term compiles")
        );
    }

    #[test]
    fn k_best_and_sigma_levels_are_the_graph_levels(
        p in arb_pref(),
        r in arb_relation(14),
        doomed in prop::collection::vec(0usize..14, 1..4),
        picked in prop::collection::vec(any::<bool>(), 14),
    ) {
        // The table, the table after a delete (tombstones), and a plain
        // `take_rows` view, each peeled by a caching engine and by one
        // that keeps nothing.
        let mut tombstoned = r.clone();
        tombstoned.delete_rows(&doomed.into_iter().filter(|&i| i < r.len()).collect::<Vec<_>>());
        let view = r.take_rows(&(0..r.len()).filter(|&i| picked[i]).collect::<Vec<_>>());
        for rel in [&r, &tombstoned, &view] {
            for engine in [Engine::new(), Engine::new().with_capacity(0)] {
                check_peel(&p, rel, &engine)?;
            }
        }
    }

    #[test]
    fn prop12_decomposition_reconstructs_pareto(r in arb_relation(14)) {
        let p1 = around("a", 2);
        let p2 = lowest("b");
        let d = Engine::new()
            .pareto_decomposition(&p1, &p2, &r)
            .expect("disjoint attributes");
        let direct = sigma_naive_generic(&p1.pareto(p2), &r).expect("term compiles");
        prop_assert_eq!(d.combined(), direct);
    }

    #[test]
    fn prop13_filter_inequalities(r in arb_relation(16)) {
        if r.is_empty() {
            return Ok(());
        }
        let report = FilterEffectReport::measure(&Engine::new(), &lowest("a"), &lowest("b"), &r)
            .expect("terms compile");
        prop_assert!(report.inequalities_hold(), "{:?}", report);
    }

    #[test]
    fn adding_dominated_tuples_never_changes_results(
        p in arb_pref(),
        r in arb_relation(12),
    ) {
        // "query results adapted to the quality of data, not quantity":
        // re-inserting copies of already-dominated tuples is a no-op on
        // the result set of A-values.
        let res = sigma_naive_generic(&p, &r).expect("term compiles");
        if res.len() == r.len() || r.is_empty() {
            return Ok(());
        }
        let dominated: Vec<usize> =
            (0..r.len()).filter(|i| !res.contains(i)).collect();
        let mut grown = r.clone();
        for &i in &dominated {
            grown.push(r.row(i).clone()).expect("same schema");
        }
        let res2 = sigma_naive_generic(&p, &grown).expect("term compiles");
        let values = |rel: &Relation, ix: &[usize]| {
            let mut v: Vec<Tuple> = ix.iter().map(|&i| rel.row(i).clone()).collect();
            v.sort();
            v.dedup();
            v
        };
        prop_assert_eq!(values(&r, &res), values(&grown, &res2));
    }

    #[test]
    fn equivalent_terms_answer_identically(p in arb_pref(), r in arb_relation(12)) {
        // Prop. 7 through the rewrite engine.
        let s = preferences::core::algebra::simplify(&p);
        prop_assert_eq!(
            sigma_naive_generic(&p, &r).expect("term compiles"),
            sigma_naive_generic(&s, &r).expect("simplified term compiles")
        );
    }
}

/// Every `k_best` and `sigma_levels` of `p` over `r` through `engine`
/// against Def. 2 by its definition — the better-than graph's
/// longest-path levels. Each peel builds at most one matrix and seeds no
/// result.
fn check_peel(p: &Pref, r: &Relation, engine: &Engine) -> Result<(), TestCaseError> {
    let c = CompiledPref::compile(p, r.schema()).expect("term compiles");
    let g = BetterGraph::from_relation(&c, r).expect("terms are SPOs (Prop. 1)");
    let mut order: Vec<usize> = (0..r.len()).collect();
    order.sort_by_key(|&i| (g.level(i), i));
    let q = engine.prepare(p, r.schema()).expect("term compiles");
    let mut calls = 0;
    for k in 0..=r.len() + 1 {
        let (rows, report) = q.k_best(r, k).expect("peel runs");
        prop_assert_eq!(rows, &order[..k.min(r.len())], "k = {} for {}", k, p);
        prop_assert_ne!(report.algorithm, Algorithm::Naive);
        calls += 1;
    }
    let depth = (0..r.len()).map(|i| g.level(i)).max().unwrap_or(0);
    for level in 0..=depth + 1 {
        let want: Vec<usize> = (0..r.len()).filter(|&i| g.level(i) <= level).collect();
        let got = q.sigma_levels(r, level).expect("peel runs");
        prop_assert_eq!(got, want, "level {} for {}", level, p);
        calls += 1;
    }
    let stats = engine.cache_stats();
    prop_assert!(
        stats.entries <= 1 && stats.result_entries == 0,
        "{:?}",
        stats
    );
    prop_assert!(stats.misses <= calls, "{} calls: {:?}", calls, stats);
    Ok(())
}

/// The head split's edge cases, pinned.
#[test]
fn head_split_edge_cases_agree_with_the_oracle() {
    let run = |p: &Pref, r: &Relation| check_routes(p, r).expect("agrees with Def. 15").0;
    // AROUND 0 over −5 and 5: one best key, two codes — two buckets, each
    // with its own LOWEST(b) winner.
    let r = rel! {
        ("a": Int, "b": Int, "c": Str);
        (-5, 3, "x"), (5, 1, "x"), (-5, 1, "y"), (7, 0, "x"), (5, 2, "y"),
    };
    let p = around("a", 0).prior(lowest("b"));
    assert_eq!(run(&p, &r), Algorithm::Sfs);
    assert_eq!(sigma_naive_generic(&p, &r).unwrap(), [1, 2]);
    // POS with no POS value present: x and y both sit at the top.
    let p = pos("c", ["v"]).prior(lowest("b").pareto(around("a", 6)));
    assert_eq!(run(&p, &r), Algorithm::Sfs);
    assert_eq!(sigma_naive_generic(&p, &r).unwrap(), [1, 2, 3, 4]);
    // An all-equal head: one bucket, the whole relation.
    let same = rel! { ("a": Int, "b": Int, "c": Str); (1, 2, "x"), (2, 1, "x"), (2, 2, "x") };
    let p = pos("c", ["x"]).prior(highest("a").pareto(highest("b")));
    assert_eq!(run(&p, &same), Algorithm::Sfs);
    assert_eq!(sigma_naive_generic(&p, &same).unwrap(), [2]);
    // Nested single-lane heads bucket lexicographically.
    let p = Pref::Prior(vec![neg("c", ["x"]), around("a", 0), lowest("b")]);
    assert_eq!(run(&p, &r), Algorithm::Sfs);
    // A Pareto head stays on the pairwise path.
    let p = lowest("a").pareto(lowest("b")).prior(pos("c", ["x"]));
    assert_eq!(run(&p, &r), Algorithm::Bnl);
    // A NULL in the head column: no matrix, so the generic path.
    let mut nulls = r.clone();
    nulls
        .push_values(vec![Value::Null, Value::from(0), Value::from("x")])
        .unwrap();
    let p = lowest("a").prior(lowest("b"));
    let c = CompiledPref::compile(&p, nulls.schema()).unwrap();
    assert!(c.score_matrix(&nulls).is_none());
    let q = Engine::new().prepare(&p, nulls.schema()).unwrap();
    let (rows, explain) = q.execute(&nulls).unwrap().into_parts();
    assert_eq!(rows, sigma_naive_generic(&p, &nulls).unwrap());
    assert_eq!(explain.algorithm, Algorithm::Bnl, "{}", explain.reason);
    assert!(!explain.materialized);
}

/// A relation over [`test_schema`] plus the grouping columns `g` (Str)
/// and `h` (Int): two values each, repeated, and a NULL in a third of
/// the rows.
fn arb_grouped_relation(max_rows: usize) -> impl Strategy<Value = Relation> {
    let row = (0i64..6, 0i64..6, 0usize..4, 0usize..3, 0usize..3);
    prop::collection::vec(row, 0..=max_rows).prop_map(|rows| {
        let schema = Schema::new(vec![
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Str),
            ("g", DataType::Str),
            ("h", DataType::Int),
        ]);
        let mut r = Relation::empty(schema.expect("valid schema"));
        for (a, b, c, g, h) in rows {
            let g = ["p", "q"].get(g).map_or(Value::Null, |&s| Value::from(s));
            let h = [0i64, 1].get(h).map_or(Value::Null, |&i| Value::from(i));
            let row = vec![Value::from(a), Value::from(b), Value::from(CATS[c]), g, h];
            r.push_values(row).expect("row matches schema");
        }
        r
    })
}

/// Strategy: the `P` of a grouped term — one key lane, a flat Pareto of
/// key lanes, a POS head over a Pareto, or a pairwise (EXPLICIT) tail.
fn arb_grouped_pref() -> impl Strategy<Value = Pref> {
    let explicit_c = || explicit("c", [("y", "x"), ("z", "y")]).expect("acyclic");
    prop_oneof![
        arb_lane(),
        prop::collection::vec(arb_lane(), 2..4).prop_map(Pref::Pareto),
        (0usize..4, arb_lane(), arb_lane())
            .prop_map(|(i, x, y)| pos("c", [CATS[i]]).prior(x.pareto(y))),
        arb_lane().prop_map(move |head| head.prior(explicit_c())),
        Just(explicit_c()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn anti_chain_heads_agree_with_def16_and_the_oracle(
        p in arb_grouped_pref(),
        by in prop_oneof![
            Just(vec!["g"]),
            Just(vec!["h"]),
            Just(vec!["g", "h"]),
            Just(vec!["c", "g"]),
        ],
        middle in any::<bool>(),
        unscored in any::<bool>(),
        r in arb_grouped_relation(40),
    ) {
        // `A↔ & P` (Def. 16), or `LOWEST(a) & A↔ & P` with the anti-chain
        // in the middle, planned and forced to SFS, over the table and
        // over a view windowed onto the table's warmed matrix. Grouping
        // by `c` covers a `P` over `c` alone, which leaves a lone `A↔`.
        // An unscored `P` leads with a Str `LOWEST`: no matrix builds and
        // nothing has a utility, so a head `A↔` splits by the term walk
        // and a middle one leaves a planned BNL and a refused forced SFS.
        let attrs = AttrSet::new(by);
        let grouping = Pref::Antichain(attrs.clone());
        let p = match unscored {
            true => lowest("c").pareto(p),
            false => p,
        };
        let term = match middle {
            false => grouping.prior(p.clone()),
            true => Pref::Prior(vec![lowest("a"), grouping, p.clone()]),
        };
        let view = r.select_derived(|t| t[1] != Value::from(0), 0x6b);
        let planned = Engine::new();
        let forced = Engine::with_optimizer(Optimizer::new().with_algorithm(Algorithm::Sfs));
        for engine in [&planned, &forced] {
            let q = engine.prepare(&term, r.schema()).expect("term compiles");
            for (rel, windowed) in [(&r, false), (&view, true)] {
                let oracle = sigma_naive_generic(&term, rel).expect("term compiles");
                if !middle {
                    let def16 = sigma_groupby_definitional(&p, &attrs, rel).expect("term compiles");
                    prop_assert_eq!(&def16, &oracle, "Def. 16 for {}", term);
                }
                let builds = q.compiled().score_matrix(rel).is_some();
                let run = q.execute(rel);
                if !builds && middle && std::ptr::eq(engine, &forced) {
                    prop_assert!(run.is_err(), "forced SFS ran {}", term);
                    continue;
                }
                let (rows, explain) = run.expect("term runs").into_parts();
                prop_assert_eq!(&rows, &oracle, "{} for {}", explain.algorithm, term);
                let want = match builds || !middle {
                    true => Algorithm::Sfs,
                    false => Algorithm::Bnl,
                };
                prop_assert_eq!(explain.algorithm, want, "{}", term);
                if !builds && !middle {
                    prop_assert!(explain.reason.contains("per group"), "{}", explain.reason);
                }
                if windowed && builds {
                    prop_assert_eq!(explain.cache, CacheStatus::WindowHit, "{}", term);
                }
            }
        }
    }
}

/// `P1 + P2` (Def. 11b, disjoint union) of two EXPLICIT fragments over
/// disjoint value sets of one attribute: its `better` is `P1 ∨ P2` on
/// every pair, the engine's σ is Def. 15's, and operands over different
/// attributes are refused. (A fragment ranks no outside value: a full
/// EXPLICIT puts every other value below its graph, so two of them never
/// have disjoint ranges.)
#[test]
fn disjoint_union_is_the_or_of_its_operands() {
    let fragment = |edges: &[(&str, &str)]| {
        Pref::base("c", Explicit::fragment(edges.iter().copied()).unwrap())
    };
    let left = fragment(&[("b", "a"), ("c", "b")]);
    let right = fragment(&[("y", "x"), ("z", "x")]);
    let union = left.clone().disjoint_union(right.clone()).unwrap();
    let r = rel! {
        ("c": Str, "n": Int);
        ("b", 1), ("z", 2), ("a", 3), ("q", 4), ("c", 5), ("x", 6), ("y", 7), ("b", 8),
    };
    let compile = |p: &Pref| CompiledPref::compile(p, r.schema()).unwrap();
    let (l, rt, u) = (compile(&left), compile(&right), compile(&union));
    let mut pairs = 0;
    for i in 0..r.len() {
        for j in 0..r.len() {
            let (x, y) = (r.row(i), r.row(j));
            assert_eq!(
                u.better(x, y),
                l.better(x, y) || rt.better(x, y),
                "{i}, {j}"
            );
            pairs += usize::from(u.better(x, y));
        }
    }
    // a beats b (twice) and c, b beats c (twice); x beats y and z.
    assert_eq!(pairs, 7);
    let oracle = sigma_naive_generic(&union, &r).unwrap();
    // a, q (in neither range: unranked) and x.
    assert_eq!(oracle, [2, 3, 5]);
    let q = Engine::new().prepare(&union, r.schema()).unwrap();
    assert_eq!(q.execute(&r).unwrap().rows(), &oracle[..]);
    let other = explicit("n", [(1, 2)]).unwrap();
    assert!(matches!(
        left.disjoint_union(other),
        Err(CoreError::AttrSetMismatch { .. })
    ));
}
