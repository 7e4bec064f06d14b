//! A tour of the preference algebra (Section 4): laws, the
//! non-discrimination theorem, rewriting, and the decomposition theorems
//! in action.
//!
//! ```bash
//! cargo run --example algebra_playground
//! ```

use preferences::core::algebra::laws;
use preferences::core::algebra::{equivalent_on, simplify};
use preferences::core::graph::BetterGraph;
use preferences::prelude::*;
use preferences::workload::paper;

fn main() {
    // ---- the non-discrimination theorem on the paper's Car-DB -------------
    let cardb = paper::example7_cardb();
    let p1 = lowest("price");
    let p2 = lowest("mileage");
    let pareto = p1.clone().pareto(p2.clone());
    let nondisc = p1
        .clone()
        .prior(p2.clone())
        .intersect(p2.clone().prior(p1.clone()))
        .expect("same attribute sets");

    println!("P1 ⊗ P2                 = {pareto}");
    println!("(P1 & P2) ♦ (P2 & P1)   = {nondisc}");
    println!(
        "equivalent on Car-DB    : {}\n",
        equivalent_on(&pareto, &nondisc, &cardb).expect("compiles")
    );

    let compiled = CompiledPref::compile(&pareto, cardb.schema()).expect("compiles");
    let graph = BetterGraph::from_relation(&compiled, &cardb).expect("SPO");
    let labels: Vec<String> = (1..=cardb.len()).map(|i| format!("val{i}")).collect();
    println!(
        "Better-than graph of P1 ⊗ P2 on Car-DB:\n{}",
        graph.render(&labels)
    );

    // ---- the law collection, spot-checked ----------------------------------
    let sample = rel! {
        ("a": Int, "b": Int);
        (1, 9), (1, 2), (5, 0), (5, 9), (3, 3), (2, 2), (2, 3),
    };
    println!("Unary laws of Proposition 3 on a sample relation:");
    for law in laws::unary_laws() {
        let p = around("a", 2).pareto(lowest("b"));
        let (lhs, rhs) = (law.build)(p);
        let ok = equivalent_on(&lhs, &rhs, &sample).expect("compiles");
        println!("  [{}] {}", if ok { "ok" } else { "FAIL" }, law.name);
    }

    // ---- rewriting ----------------------------------------------------------
    println!("\nThe optimizer's law-based simplifier:");
    for term in [
        lowest("a").dual().dual(),
        pos("a", [1i64]).prior(neg("a", [2i64])),
        antichain(["b"]).pareto(lowest("a")),
        lowest("a").pareto(lowest("a")).pareto(lowest("a").dual()),
    ] {
        println!("  {term}  ⇝  {}", simplify(&term));
    }

    // ---- Example 11: Pareto decomposition with YY ---------------------------
    println!("\nExample 11: σ[LOWEST(a) ⊗ HIGHEST(a)] on R = {{3, 6, 9}}");
    let r = paper::example11_relation();
    let low = lowest("a");
    let high = highest("a");
    let engine = Engine::new();
    let yy = engine
        .yy(
            &low.clone().prior(high.clone()),
            &high.clone().prior(low.clone()),
            &r,
        )
        .expect("compiles");
    println!("  σ[P2](σ[P1](R)) keeps 3, σ[P1](σ[P2](R)) keeps 9,");
    println!(
        "  YY(P1&P2, P2&P1) = {:?}  (row of value 6 — maximal in neither view)",
        yy.iter().map(|&i| r.row(i)[0].clone()).collect::<Vec<_>>()
    );
    let full = engine
        .prepare(&low.pareto(high), r.schema())
        .and_then(|q| q.execute(&r))
        .expect("compiles")
        .into_rows();
    println!(
        "  σ[P1⊗P2](R) = all {} values — the conflict left everything unranked,",
        full.len()
    );
    println!("  the anti-chain: \"a natural reservoir to negotiate compromises\".");
}
