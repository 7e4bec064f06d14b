//! A dominated append cannot change a cached result, so the engine
//! patches the result in place instead of re-running an algorithm — and
//! the rendered EXPLAIN names that route.

use pref_core::prelude::*;
use pref_query::bmo::sigma_naive_generic;
use pref_query::{CacheStatus, Engine};
use pref_relation::{rel, Value};

#[test]
fn a_dominated_append_is_maintained_and_explain_says_so() {
    let mut r = rel! {
        ("price": Int, "mileage": Int);
        (20_000, 9_000), (18_000, 12_000), (25_000, 4_000),
        (30_000, 30_000), (22_000, 15_000), (40_000, 50_000),
    };
    let p = around("price", 20_000).pareto(lowest("mileage"));
    let engine = Engine::new();
    let q = engine.prepare(&p, r.schema()).unwrap();
    assert_eq!(q.execute(&r).unwrap().cache(), CacheStatus::Miss);

    // Far from the AROUND target and worst on mileage: dominated by all.
    r.push_values(vec![Value::from(900_000), Value::from(2_000_000)])
        .unwrap();
    let (rows, ex) = q.execute(&r).unwrap().into_parts();
    assert_eq!(ex.cache, CacheStatus::MaintainedHit, "{ex}");
    assert!(
        ex.to_string().contains("maintained-hit"),
        "EXPLAIN must name the maintained route: {ex}"
    );
    assert_eq!(engine.cache_stats().maintained_hits, 1);
    assert_eq!(rows, sigma_naive_generic(&p, &r).unwrap());
}
