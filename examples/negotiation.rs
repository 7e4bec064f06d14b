//! e-negotiation groundwork (§7): "Unranked values are a natural
//! reservoir to negotiate compromises." Julia (customer) and Michael
//! (dealer) negotiate over the Pareto frontier of their conflicting
//! preferences.
//!
//! ```bash
//! cargo run --example negotiation
//! ```

use preferences::prelude::*;
use preferences::query::negotiate::NegotiationTable;
use preferences::workload::cars;

fn main() {
    let stock = cars::catalog(800, 2002);
    let engine = Engine::new();

    // The conflict: Julia wants it cheap, Michael wants his commission.
    let julia = lowest("price");
    let michael = highest("commission");

    let table = NegotiationTable::build(&engine, &julia, &michael, &stock)
        .expect("catalog schema covers both preferences");
    println!(
        "Pareto frontier σ[julia ⊗ michael] has {} offers — neither party's\n\
         view dominates (the non-discrimination theorem, Prop. 5).\n",
        table.offers().len()
    );

    println!("offer  price  commission  julia-level  michael-level");
    for o in table.offers().iter().take(10) {
        let t = stock.row(o.row);
        println!(
            "{:5}  {:5}  {:10}  {:11}  {:13}",
            o.row,
            t[4], // price
            t[8], // commission
            o.level_a,
            o.level_b
        );
    }

    match table.unanimous().first() {
        Some(deal) => println!("\nunanimous deal, no haggling needed: row {}", deal.row),
        None => println!("\nno unanimous deal — haggling it is."),
    }
    if let Some(o) = table.most_balanced() {
        let t = stock.row(o.row);
        println!(
            "most balanced compromise: {} at levels (julia {}, michael {})",
            t, o.level_a, o.level_b
        );
    }

    // Iterative concession: BMO is level 1; each level concedes one
    // better-than step — controlled relaxation, never flooding.
    println!("\nJulia's concession ladder (LOWEST(price) levels):");
    let julia = engine
        .prepare(&julia, stock.schema())
        .expect("catalog schema covers julia");
    for level in 1..=4 {
        let rows = julia.sigma_levels(&stock, level).expect("same schema");
        let cheapest: Vec<i64> = rows
            .iter()
            .map(|&i| stock.row(i)[4].as_int().expect("price is Int"))
            .collect();
        println!(
            "  up to level {level}: {} offers, prices {:?}",
            rows.len(),
            &cheapest[..cheapest.len().min(6)]
        );
    }
}
