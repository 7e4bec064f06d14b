//! Integration tests reproducing every worked example of the paper
//! (Examples 1–11) end to end, across crates. These are the repository's
//! ground truth: each assertion corresponds to a figure, level
//! annotation or result set printed in the paper.

use preferences::core::algebra::equivalent_on;
use preferences::core::graph::BetterGraph;
use preferences::prelude::*;
use preferences::query::quality::perfect_match;
use preferences::workload::paper;

/// `σ[P](R)` through the one product entry point, `prepare → execute`.
fn sigma(p: &Pref, r: &Relation) -> Vec<usize> {
    let q = Engine::new()
        .prepare(p, r.schema())
        .expect("fixture compiles");
    q.execute(r).expect("fixture runs").into_rows()
}

/// `σ[P](R)` as the sub-relation of best matches.
fn sigma_rel(p: &Pref, r: &Relation) -> Relation {
    r.take_rows(&sigma(p, r))
}

fn graph_of(pref: &Pref, r: &Relation) -> BetterGraph {
    let c = CompiledPref::compile(pref, r.schema()).expect("fixture compiles");
    BetterGraph::from_relation(&c, r).expect("fixture is a strict partial order")
}

#[test]
fn example1_explicit_color_graph() {
    // "white and red are maximal at level 1, yellow at 2, green at 3,
    //  brown and black minimal at level 4."
    let g = graph_of(&paper::example1_pref(), &paper::example1_domain());
    // domain order: white, red, yellow, green, brown, black
    assert_eq!(
        g.level_groups(),
        vec![vec![0, 1], vec![2], vec![3], vec![4, 5]]
    );
    assert_eq!(g.minimal(), vec![4, 5]);
}

#[test]
fn example2_pareto_graph_and_optimal_set() {
    let r = paper::example2_relation();
    let g = graph_of(&paper::example2_pref(), &r);
    // Level 1: val1 val3 val5; Level 2: val2 val4 val7 val6.
    assert_eq!(g.level_groups(), vec![vec![0, 2, 4], vec![1, 3, 5, 6]]);
    // "for each of P1, P2 and P3 at least one maximal value appears in
    //  the Pareto-optimal set: 5 and −5 for P1, 0 for P2 and 8 for P3."
    let maxima: Vec<&Tuple> = g.maximal().into_iter().map(|i| r.row(i)).collect();
    assert!(maxima.iter().any(|t| t[0] == Value::from(-5)));
    assert!(maxima.iter().any(|t| t[0] == Value::from(5)));
    assert!(maxima.iter().any(|t| t[1] == Value::from(0)));
    assert!(maxima.iter().any(|t| t[2] == Value::from(8)));
}

#[test]
fn example3_shared_attribute_compromise() {
    // "P5 and P6 agreed both on yellow being maximal, whereas only P5
    //  ranked green as maximal and only P6 ranked black."
    let r = paper::example3_relation();
    let g = graph_of(&paper::example3_pref(), &r);
    // rows: red, green, yellow, blue, black, purple
    assert_eq!(g.level_groups(), vec![vec![1, 2, 4], vec![0, 3, 5]]);
}

#[test]
fn example4_prioritised_graphs() {
    let r = paper::example2_relation();

    // P8 = P1 & P2: three levels — {val1,val3}, {val2,val4}, {val5,val6,val7}.
    let g8 = graph_of(&paper::example4_p8(), &r);
    assert_eq!(
        g8.level_groups(),
        vec![vec![0, 2], vec![1, 3], vec![4, 5, 6]]
    );

    // P9 = (P1 ⊗ P2) & P3: two levels — {val1,val3,val5}, rest.
    let g9 = graph_of(&paper::example4_p9(), &r);
    assert_eq!(g9.level_groups(), vec![vec![0, 2, 4], vec![1, 3, 5, 6]]);
}

#[test]
fn example5_rank_f_chain() {
    // F-values 15, 17, 11, 21, 10, 10 giving val4→val2→val1→val3→{val5,val6}.
    let r = paper::example5_relation();
    let g = graph_of(&paper::example5_pref(), &r);
    assert_eq!(
        g.level_groups(),
        vec![vec![3], vec![1], vec![0], vec![2], vec![4, 5]]
    );
    // "The better-than graph of P3 for subset R is not a chain and has 5
    //  levels" — val5 and val6 are unranked duplicates.
    assert!(!g.is_chain());
    assert_eq!(g.unranked_pairs(), vec![(4, 5)]);
}

#[test]
fn example6_scenario_runs_on_a_catalog() {
    use preferences::workload::cars;
    let stock = cars::catalog(1_500, 2002);
    for q in [
        paper::example6_q1(),
        paper::example6_q2(),
        paper::example6_q1_star(),
        paper::example6_q2_star(),
    ] {
        let res = sigma_rel(&q, &stock);
        assert!(!res.is_empty(), "σ[{q}] must not be empty");
        // Conflicting multi-party preferences never crash (desideratum 4)
        // and never flood: the result is a tiny fraction of the catalog.
        assert!(res.len() < stock.len() / 2, "σ[{q}] floods: {}", res.len());
    }
}

#[test]
fn example7_non_discrimination_on_cardb() {
    let r = paper::example7_cardb();
    let p1 = lowest("price");
    let p2 = lowest("mileage");
    let pareto = p1.clone().pareto(p2.clone());

    // The ⊗ graph: level 1 = {val3, val5}, level 2 = rest.
    let g = graph_of(&pareto, &r);
    assert_eq!(g.level_groups(), vec![vec![2, 4], vec![0, 1, 3]]);

    // P' = P1 & P2 is the chain val5 → val4 → val3 → val2 → val1.
    let gp = graph_of(&p1.clone().prior(p2.clone()), &r);
    assert!(gp.is_chain());
    let chain_order: Vec<usize> = gp.level_groups().into_iter().flatten().collect();
    assert_eq!(chain_order, vec![4, 3, 2, 1, 0]);

    // P'' = P2 & P1 is the chain val3 → val1 → val5 → val2 → val4.
    let gpp = graph_of(&p2.clone().prior(p1.clone()), &r);
    assert!(gpp.is_chain());
    let chain_order: Vec<usize> = gpp.level_groups().into_iter().flatten().collect();
    assert_eq!(chain_order, vec![2, 0, 4, 1, 3]);

    // (P1&P2) ♦ (P2&P1) ≡ P1 ⊗ P2 — "exactly the set of better-than
    //  relationships shared by P' and P''".
    let nondisc = p1
        .clone()
        .prior(p2.clone())
        .intersect(p2.prior(p1))
        .expect("same attribute sets");
    assert!(equivalent_on(&pareto, &nondisc, &r).expect("fixtures compile"));
}

#[test]
fn example8_bmo_and_perfect_match() {
    let r = paper::example8_relation();
    let p = paper::example1_pref();
    let res = sigma_rel(&p, &r);
    let colors: Vec<&str> = res.iter().map(|t| t[0].as_str().unwrap()).collect();
    assert_eq!(colors, vec!["yellow", "red"]);
    // "Note that red is a perfect match."
    assert_eq!(
        perfect_match(&p, &r, r.row(1)).expect("fixture compiles"),
        Some(true)
    );
    assert_eq!(
        perfect_match(&p, &r, r.row(0)).expect("fixture compiles"),
        Some(false)
    );
}

#[test]
fn example9_nonmonotonic_series() {
    let p = paper::example9_pref();
    let expected: Vec<Vec<&str>> = vec![vec!["frog"], vec!["frog", "shark"], vec!["turtle"]];
    for (r, want) in paper::example9_series().into_iter().zip(expected) {
        let res = sigma_rel(&p, &r);
        let names: Vec<&str> = res.iter().map(|t| t[2].as_str().unwrap()).collect();
        assert_eq!(names, want);
    }
}

#[test]
fn example10_grouped_query() {
    // σ[P1&P2](Cars) = {(Audi,40000,1), (BMW,35000,2), (VW,20000,3)}.
    let r = paper::example10_relation();
    let q = antichain(["make"]).prior(around("price", 40_000));
    let res = sigma_rel(&q, &r);
    let oids: Vec<i64> = res.iter().map(|t| t[2].as_int().unwrap()).collect();
    assert_eq!(oids, vec![1, 2, 3]);

    // And via the decomposition (Prop. 10) and via Preference SQL.
    assert_eq!(
        Engine::new()
            .sigma_decomposed(&q, &r)
            .expect("fixture compiles"),
        vec![0, 1, 2]
    );
    let mut db = PrefSql::new();
    db.register("cars", r);
    let sql_res = db
        .execute("SELECT * FROM cars PREFERRING price AROUND 40000 GROUP BY make")
        .expect("query is well-formed");
    assert_eq!(sql_res.relation.len(), 3);
}

#[test]
fn example11_pareto_decomposition() {
    let r = paper::example11_relation();
    let p1 = lowest("a");
    let p2 = highest("a");

    // σ[P1⊗P2](R) = R: the dual pair conflicts everywhere.
    let pareto = Pref::Pareto(vec![p1.clone(), p2.clone()]);
    assert_eq!(sigma(&pareto, &r), vec![0, 1, 2]);

    // The countercheck via Prop. 12's three components.
    let first = sigma(&p1.clone().prior(p2.clone()), &r);
    let second = sigma(&p2.clone().prior(p1.clone()), &r);
    assert_eq!(first, vec![0]); // value 3
    assert_eq!(second, vec![2]); // value 9
    let yy = Engine::new()
        .yy(&p1.clone().prior(p2.clone()), &p2.prior(p1), &r)
        .expect("fixture compiles");
    assert_eq!(yy, vec![1]); // value 6
}
