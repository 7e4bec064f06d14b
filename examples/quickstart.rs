//! Quickstart: build preferences, run a BMO query, inspect the result.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use preferences::core::graph::BetterGraph;
use preferences::prelude::*;

fn main() {
    // A tiny used-car database set R.
    let cars = rel! {
        ("make": Str, "color": Str, "price": Int, "mileage": Int);
        ("Audi", "red",   40_000, 15_000),
        ("BMW",  "gray",  35_000, 30_000),
        ("VW",   "red",   20_000, 10_000),
        ("Opel", "blue",  15_000, 35_000),
        ("VW",   "black", 15_000, 30_000),
    };
    println!("Database set R:\n{cars}");

    // Wishes, not filters: "no gray car, please; beyond that price and
    // mileage matter equally".
    let wish = neg("color", ["gray"]).prior(lowest("price").pareto(lowest("mileage")));
    println!("Preference term: {wish}\n");

    // Best-Matches-Only: all maximal tuples, and only those (Def. 15).
    // One way in: prepare the term once, execute it as often as needed.
    let engine = Engine::new();
    let query = engine
        .prepare(&wish, cars.schema())
        .expect("schema matches the preference");
    let best = query.execute_rel(&cars).expect("same schema");
    println!("σ[P](R) — best matches only:\n{best}");

    // Every execution explains itself (the repeat is a cache hit).
    let (rows, explain) = query.execute(&cars).expect("same schema").into_parts();
    println!("EXPLAIN:\n{explain}\n");
    println!("result row indices: {rows:?}\n");

    // Hard constraints would have failed here — there is no car matching
    // every wish exactly, yet BMO never returns an empty answer:
    let impossible = pos("make", ["Ferrari"]).pareto(around("price", 1_000));
    let relaxed = engine
        .prepare(&impossible, cars.schema())
        .and_then(|q| q.execute_rel(&cars))
        .expect("schema matches");
    println!(
        "Even σ[{impossible}](R) relaxes to {} best compromise(s) instead of 0 rows.",
        relaxed.len()
    );

    // Better-than graphs visualise the partial order (Def. 2).
    let compiled = CompiledPref::compile(&wish, cars.schema()).expect("compiles");
    let graph = BetterGraph::from_relation(&compiled, &cars).expect("strict partial order");
    let labels: Vec<String> = cars.iter().map(|t| t.to_string()).collect();
    println!("\nBetter-than graph of P on R:\n{}", graph.render(&labels));
    println!("Graphviz:\n{}", graph.to_dot(&labels));
}
