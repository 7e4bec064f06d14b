//! Shared proptest strategies: random relations over a fixed test schema
//! and random preference terms over its attributes.

use preferences::prelude::*;
use proptest::prelude::*;

/// The test schema: two integer attributes and one categorical.
pub fn test_schema() -> Schema {
    Schema::new(vec![
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("c", DataType::Str),
    ])
    .expect("static schema")
}

/// `σ[P](R)` through `engine` — the one product entry point,
/// `Engine::prepare → Prepared::execute`.
#[allow(dead_code)] // not every suite that shares this module runs queries
pub fn sigma(engine: &Engine, p: &Pref, r: &Relation) -> Vec<usize> {
    engine
        .prepare(p, r.schema())
        .expect("term compiles")
        .execute(r)
        .expect("prepared execution runs")
        .into_rows()
}

/// Strategy: a relation over [`test_schema`] with `0..=max_rows` rows and
/// deliberately narrow domains (collisions exercise the equality paths of
/// Pareto/prioritised accumulation).
pub fn arb_relation(max_rows: usize) -> impl Strategy<Value = Relation> {
    prop::collection::vec((0i64..6, 0i64..6, 0usize..4), 0..=max_rows).prop_map(|rows| {
        let cats = ["x", "y", "z", "w"];
        let mut r = Relation::empty(test_schema());
        for (a, b, c) in rows {
            r.push_values(vec![Value::from(a), Value::from(b), Value::from(cats[c])])
                .expect("row matches test schema");
        }
        r
    })
}

/// Strategy: a base preference on one of the test attributes.
pub fn arb_base_pref() -> impl Strategy<Value = Pref> {
    prop_oneof![
        (0i64..6).prop_map(|z| around("a", z)),
        (0i64..6).prop_map(|z| around("b", z)),
        Just(lowest("a")),
        Just(highest("a")),
        Just(lowest("b")),
        Just(highest("b")),
        prop::collection::vec(0usize..4, 1..3).prop_map(|ix| {
            let cats = ["x", "y", "z", "w"];
            pos("c", ix.into_iter().map(|i| cats[i]))
        }),
        prop::collection::vec(0usize..4, 1..3).prop_map(|ix| {
            let cats = ["x", "y", "z", "w"];
            neg("c", ix.into_iter().map(|i| cats[i]))
        }),
        (0i64..4, 2i64..6).prop_map(|(lo, width)| {
            between("a", lo, lo + width).expect("lo <= hi by construction")
        }),
        Just(antichain(["c"])),
    ]
}

/// Strategy: a composite preference term of bounded depth.
pub fn arb_pref() -> impl Strategy<Value = Pref> {
    arb_base_pref().prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Pref::Pareto),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Pref::Prior),
            inner.clone().prop_map(|p| p.dual()),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| {
                // Intersection requires equal attribute sets; fall back to
                // the non-discrimination composition, which always works.
                Pref::Inter(
                    std::sync::Arc::new(Pref::Prior(vec![p.clone(), q.clone()])),
                    std::sync::Arc::new(Pref::Prior(vec![q, p])),
                )
            }),
        ]
    })
}

/// The schema of [`arb_nullable_relation`]: [`test_schema`] plus a Float
/// attribute `d`; `c` and `d` hold NULLs.
#[allow(dead_code)] // only the score-matrix suite reads NULL-bearing data
pub fn nullable_schema() -> Schema {
    Schema::new(vec![
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("c", DataType::Str),
        ("d", DataType::Float),
    ])
    .expect("static schema")
}

/// One row of [`nullable_schema`]: narrow domains, and a NULL in `c`
/// (one in five) and in `d` (one in four). `d` includes `-0.0`, which
/// equals no other value.
#[allow(dead_code)]
pub fn arb_nullable_row() -> impl Strategy<Value = Vec<Value>> {
    (0i64..6, 0i64..6, 0usize..5, 0usize..8).prop_map(|(a, b, c, d)| {
        let c = ["x", "y", "z", "w"]
            .get(c)
            .map_or(Value::Null, |&s| Value::from(s));
        let d = [0.0, -0.0, 1.5, 2.5, 1e300, -1.5]
            .get(d)
            .map_or(Value::Null, |&f| Value::from(f));
        vec![Value::from(a), Value::from(b), c, d]
    })
}

/// Strategy: a relation over [`nullable_schema`] with `0..=max_rows`
/// rows, in one of four storage shapes — a dense table, a `select` view,
/// a reordering `take_rows` view, or a table with tombstoned rows. The
/// bool mask picks the rows a view keeps or the tombstones spare.
#[allow(dead_code)]
pub fn arb_nullable_relation(max_rows: usize) -> impl Strategy<Value = Relation> {
    (
        prop::collection::vec((arb_nullable_row(), any::<bool>()), 0..=max_rows),
        0usize..4,
    )
        .prop_map(|(rows, shape)| {
            let mut r = Relation::empty(nullable_schema());
            for (row, _) in &rows {
                r.push_values(row.clone()).expect("row matches the schema");
            }
            let kept: Vec<usize> = (0..rows.len()).filter(|&i| rows[i].1).collect();
            match shape {
                0 => r,
                1 => r.select(|t| t[0] != Value::from(0)),
                2 => r.take_rows(&kept.iter().rev().copied().collect::<Vec<_>>()),
                _ => {
                    let doomed: Vec<usize> = (0..rows.len()).filter(|&i| !rows[i].1).collect();
                    r.delete_rows(&doomed);
                    r
                }
            }
        })
}

/// Strategy: a base preference over [`nullable_schema`], including the
/// level-based shapes (POS/POS, LAYERED), EXPLICIT, a multi-attribute
/// anti-chain, bases on `d` that embed NULL (SCORE, POS, AROUND) and one
/// that does not (LOWEST), so some builds fail.
#[allow(dead_code)]
pub fn arb_nullable_base() -> impl Strategy<Value = Pref> {
    use preferences::core::base::layered::Layer;
    let cats = ["x", "y", "z", "w"];
    prop_oneof![
        (0i64..6).prop_map(|z| around("a", z)),
        Just(lowest("b")),
        Just(highest("a")),
        (0usize..4).prop_map(move |i| pos("c", [cats[i]])),
        (0usize..4).prop_map(move |i| neg("c", [cats[i], cats[(i + 1) % 4]])),
        (0usize..4).prop_map(move |i| {
            pos_pos("c", [cats[i]], [cats[(i + 1) % 4]]).expect("disjoint sets")
        }),
        (0usize..4).prop_map(move |i| {
            layered(
                "c",
                vec![
                    Layer::of([cats[i]]),
                    Layer::Others,
                    Layer::of([cats[(i + 2) % 4]]),
                ],
            )
            .expect("disjoint layers")
        }),
        Just(explicit("c", [("x", "y"), ("y", "z"), ("w", "z")]).expect("acyclic")),
        Just(score("d", "ordinal", |v| v.ordinal())),
        Just(pos("d", [1.5, -0.0])),
        Just(around("d", 1.5)),
        Just(lowest("d")),
        Just(antichain(["c", "d"])),
    ]
}

/// Strategy: a composite term over [`arb_nullable_base`] — Pareto,
/// prioritisation, dual, and prioritisations whose last operand (the
/// first one's dual) repeats the first operand's attributes.
#[allow(dead_code)]
pub fn arb_nullable_pref() -> impl Strategy<Value = Pref> {
    arb_nullable_base().prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Pref::Pareto),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Pref::Prior),
            inner.clone().prop_map(|p| p.dual()),
            // The last operand's attributes are the first's.
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Pref::Prior(vec![
                p.clone(),
                q,
                p.dual()
            ])),
        ]
    })
}
