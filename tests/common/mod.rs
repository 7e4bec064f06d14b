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
