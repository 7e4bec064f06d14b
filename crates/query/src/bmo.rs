//! The declarative BMO semantics (Def. 15): the exhaustive reference
//! evaluator every other algorithm is checked against.
//!
//! `σ[P](R) = {t ∈ R | t[A] ∈ max(P_R)}` — all best matching tuples, and
//! only those. The naive evaluation "performs O(n²) better-than tests"
//! (§5.1); [`sigma_naive_generic`] is the correctness oracle of the test
//! suite, and [`sigma_naive_matrix`] the same loop on a score matrix the
//! caller holds (the engine's `Algorithm::Naive`).

use pref_core::eval::{CompiledPref, Dominance};
use pref_core::term::Pref;
use pref_relation::Relation;

use crate::error::QueryError;

/// Naive evaluation over a materialized dominance backend (a
/// [`ScoreMatrix`](pref_core::eval::ScoreMatrix) or a
/// [`MatrixWindow`](pref_core::eval::MatrixWindow) onto a cached one).
/// Returns the indices of the maximal tuples, in row order.
pub fn sigma_naive_matrix<M: Dominance>(m: &M) -> Vec<usize> {
    (0..m.len())
        .filter(|&i| (0..m.len()).all(|other| !m.better(i, other)))
        .collect()
}

/// Naive `σ[P](R)` forced onto the generic term-walk path — the
/// correctness oracle, deliberately independent of the score-matrix
/// subsystem.
pub fn sigma_naive_generic(pref: &Pref, r: &Relation) -> Result<Vec<usize>, QueryError> {
    let c = CompiledPref::compile(pref, r.schema())?;
    Ok(sigma_naive_generic_compiled(&c, r))
}

/// Generic-path naive evaluation with a pre-compiled preference.
pub fn sigma_naive_generic_compiled(c: &CompiledPref, r: &Relation) -> Vec<usize> {
    (0..r.len())
        .filter(|&i| {
            // t is in the result iff no tuple in R is better (Def. 14a/15).
            r.iter().all(|other| !c.better(r.row(i), other))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_core::prelude::*;
    use pref_relation::{rel, Value};

    #[test]
    fn example8_bmo_result() {
        // Example 8: EXPLICIT color preference from Example 1, queried on
        // R(Color) = {yellow, red, green, black}; BMO = {yellow, red}.
        let r = rel! {
            ("color": Str);
            ("yellow",), ("red",), ("green",), ("black",),
        };
        let p = explicit(
            "color",
            [("green", "yellow"), ("green", "red"), ("yellow", "white")],
        )
        .unwrap();
        let result = r.take_rows(&sigma_naive_generic(&p, &r).unwrap());
        let colors: Vec<&str> = result.iter().map(|t| t[0].as_str().unwrap()).collect();
        assert_eq!(colors, vec!["yellow", "red"]);
    }

    #[test]
    fn example2_pareto_optimal_set() {
        let r = rel! {
            ("A1": Int, "A2": Int, "A3": Int);
            (-5, 3, 4), (-5, 4, 4), (5, 1, 8), (5, 6, 6),
            (-6, 0, 6), (-6, 0, 4), (6, 2, 7),
        };
        let p = around("A1", 0).pareto(lowest("A2")).pareto(highest("A3"));
        // "the Pareto-optimal set is {val1, val3, val5}"
        assert_eq!(sigma_naive_generic(&p, &r).unwrap(), vec![0, 2, 4]);
    }

    #[test]
    fn empty_relation_yields_empty_result() {
        let r = rel! { ("a": Int); };
        assert!(sigma_naive_generic(&lowest("a"), &r).unwrap().is_empty());
    }

    #[test]
    fn nonempty_relation_never_yields_empty_result() {
        // The BMO model solves the empty-result problem: as long as R is
        // nonempty, some tuple is maximal (finite R + SPO).
        let r = rel! { ("a": Int, "b": Int); (1, 2), (2, 1), (0, 0) };
        for p in [
            lowest("a").pareto(lowest("b")),
            pos("a", [99i64]), // nothing matches the wish
            around("a", 1000).prior(highest("b")),
        ] {
            assert!(!sigma_naive_generic(&p, &r).unwrap().is_empty(), "{p}");
        }
    }

    #[test]
    fn example9_nonmonotonicity() {
        // P = HIGHEST(fuel) ⊗ HIGHEST(insurance); growing Cars flips results.
        let p = highest("fuel_economy").pareto(highest("insurance_rating"));

        let cars1 = rel! {
            ("fuel_economy": Int, "insurance_rating": Int, "nickname": Str);
            (100, 3, "frog"), (50, 3, "cat"),
        };
        let names = |r: &Relation, idx: Vec<usize>| -> Vec<String> {
            idx.iter()
                .map(|&i| r.row(i)[2].as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names(&cars1, sigma_naive_generic(&p, &cars1).unwrap()),
            vec!["frog"]
        );

        let mut cars2 = cars1.clone();
        cars2
            .push_values(vec![Value::from(50), Value::from(10), Value::from("shark")])
            .unwrap();
        assert_eq!(
            names(&cars2, sigma_naive_generic(&p, &cars2).unwrap()),
            vec!["frog", "shark"]
        );

        let mut cars3 = cars2.clone();
        cars3
            .push_values(vec![
                Value::from(100),
                Value::from(10),
                Value::from("turtle"),
            ])
            .unwrap();
        assert_eq!(
            names(&cars3, sigma_naive_generic(&p, &cars3).unwrap()),
            vec!["turtle"]
        );
    }

    #[test]
    fn result_tuples_are_pairwise_unranked() {
        let r = rel! {
            ("a": Int, "b": Int);
            (1, 9), (2, 8), (3, 7), (3, 7), (9, 1), (5, 5), (6, 6),
        };
        let p = lowest("a").pareto(lowest("b"));
        let c = CompiledPref::compile(&p, r.schema()).unwrap();
        let res = sigma_naive_generic(&p, &r).unwrap();
        for &i in &res {
            for &j in &res {
                assert!(!c.better(r.row(i), r.row(j)));
            }
        }
    }

    #[test]
    fn excluded_tuples_are_dominated_by_some_maximal() {
        let r = rel! {
            ("a": Int, "b": Int);
            (1, 9), (2, 8), (3, 7), (9, 1), (5, 5), (6, 6), (7, 7),
        };
        let p = lowest("a").pareto(lowest("b"));
        let c = CompiledPref::compile(&p, r.schema()).unwrap();
        let res = sigma_naive_generic(&p, &r).unwrap();
        for i in 0..r.len() {
            if !res.contains(&i) {
                assert!(
                    res.iter().any(|&m| c.better(r.row(i), r.row(m))),
                    "row {i} excluded but not dominated by any maximal row"
                );
            }
        }
    }
}
