//! Property-based verification of the score-matrix evaluation path: on
//! randomized relations and preference terms, the materialized columnar
//! backend must agree *pointwise* with the generic term-walk backend, and
//! every evaluation algorithm must return the same BMO index set on both
//! backends.

mod common;

use common::{arb_pref, arb_relation, sigma, test_schema};
use preferences::core::eval::ScoreMatrix;
use preferences::prelude::*;
use preferences::query::algorithms::bnl::{
    bnl_generic, bnl_matrix, bnl_parallel_generic, bnl_parallel_matrix,
};
use preferences::query::algorithms::{dnc, sfs};
use preferences::query::bmo::{sigma_naive_generic, sigma_naive_matrix};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matrix_dominance_agrees_pointwise(p in arb_pref(), r in arb_relation(14)) {
        let c = CompiledPref::compile(&p, &test_schema()).expect("term compiles");
        if let Some(m) = c.score_matrix(&r) {
            prop_assert_eq!(m.len(), r.len());
            for x in 0..r.len() {
                for y in 0..r.len() {
                    prop_assert_eq!(
                        m.better(x, y),
                        c.better(r.row(x), r.row(y)),
                        "backends disagree on rows ({}, {}) under {}", x, y, p
                    );
                }
            }
        }
    }

    #[test]
    fn every_algorithm_agrees_on_both_backends(p in arb_pref(), r in arb_relation(16)) {
        let oracle = sigma_naive_generic(&p, &r).expect("term compiles");
        let c = CompiledPref::compile(&p, &test_schema()).expect("term compiles");

        prop_assert_eq!(bnl_generic(&c, &r), oracle.clone(), "generic BNL vs oracle for {}", p);
        prop_assert_eq!(
            bnl_parallel_generic(&c, &r, 3),
            oracle.clone(),
            "generic parallel BNL vs oracle for {}", p
        );
        let m = c.score_matrix(&r);
        if let Some(m) = &m {
            prop_assert_eq!(sigma_naive_matrix(m), oracle.clone(), "matrix naive vs oracle for {}", p);
            prop_assert_eq!(bnl_matrix(m), oracle.clone(), "matrix BNL vs oracle for {}", p);
            prop_assert_eq!(
                bnl_parallel_matrix(m, 3),
                oracle.clone(),
                "matrix parallel BNL vs oracle for {}", p
            );
        }

        // D&C and SFS apply only to restricted shapes; when they do, they
        // must agree too — SFS on either backend.
        if let Some(rows) = dnc::try_dnc_compiled(&c, &r) {
            prop_assert_eq!(rows, oracle.clone(), "D&C vs oracle for {}", p);
        }
        if let Some(rows) = sfs::try_sfs_with(&c, &r, m.as_ref()) {
            prop_assert_eq!(rows, oracle.clone(), "SFS vs oracle for {}", p);
        }
        if let Some(rows) = sfs::try_sfs_with::<ScoreMatrix>(&c, &r, None) {
            prop_assert_eq!(rows, oracle.clone(), "generic SFS vs oracle for {}", p);
        }

        // The engine end-to-end, with and without materialization.
        let q = Engine::new().prepare(&p, r.schema()).expect("term compiles");
        let (with, explain) = q.execute(&r).expect("engine runs").into_parts();
        prop_assert_eq!(with, oracle.clone(), "engine ({}) vs oracle for {}", explain.algorithm, p);
        let ablated = Engine::with_optimizer(Optimizer::new().without_materialization());
        prop_assert_eq!(sigma(&ablated, &p, &r), oracle, "ablated engine vs oracle for {}", p);
    }

    #[test]
    fn materialization_covers_the_representable_fragment(r in arb_relation(12)) {
        // The test schema's a/b are Int columns: every score-family and
        // level-based term over them must materialize.
        for p in [
            lowest("a").pareto(highest("b")),
            around("a", 3).prior(between("b", 1, 4).unwrap()),
            pos("c", ["x"]).pareto(neg("c", ["y"])),
            antichain(["c"]).prior(lowest("a")).dual(),
        ] {
            let c = CompiledPref::compile(&p, &test_schema()).expect("term compiles");
            prop_assert!(c.score_matrix(&r).is_some(), "{} should materialize", p);
        }
        // EXPLICIT materializes too (reachability-bitset backend) and
        // must agree pointwise with the term walk.
        let e = explicit("c", [("x", "y")]).unwrap();
        let c = CompiledPref::compile(&e, &test_schema()).expect("term compiles");
        let m = c.score_matrix(&r).expect("EXPLICIT materializes via bitsets");
        prop_assert!(r.is_empty() || m.explicit_backend());
        for x in 0..r.len() {
            for y in 0..r.len() {
                prop_assert_eq!(m.better(x, y), c.better(r.row(x), r.row(y)));
            }
        }
    }
}
