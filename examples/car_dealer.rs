//! The paper's Example 6, end to end: preference engineering for Julia,
//! Leslie and car dealer Michael, over a generated used-car catalog —
//! first with the builder API, then as Preference SQL.
//!
//! ```bash
//! cargo run --example car_dealer
//! ```

use preferences::prelude::*;
use preferences::workload::{cars, paper};

fn show(title: &str, result: &Relation, limit: usize) {
    println!("── {title} ({} best matches)", result.len());
    for t in result.iter().take(limit) {
        println!("   {t}");
    }
    if result.len() > limit {
        println!("   … and {} more", result.len() - limit);
    }
    println!();
}

fn main() {
    // Michael's used-car database (seeded, deterministic).
    let stock = cars::catalog(2_000, 2002);
    println!(
        "Michael's stock: {} cars over schema {}\n",
        stock.len(),
        stock.schema()
    );

    // Julia's wish list (Example 6):
    //   P1 = POS/POS(category; cabriolet; roadster)
    //   P2 = POS(transmission; automatic)
    //   P3 = AROUND(horsepower, 100)
    //   P4 = LOWEST(price)
    //   P5 = NEG(color; gray)
    //   Q1 = P5 & ((P1 ⊗ P2 ⊗ P3) & P4)
    let engine = Engine::new();
    let best = |q: &Pref| {
        engine
            .prepare(q, stock.schema())
            .and_then(|prepared| prepared.execute_rel(&stock))
            .expect("catalog schema covers the scenario")
    };
    let q1 = paper::example6_q1();
    println!("Julia's Q1 = {q1}\n");
    show("σ[Q1](stock)", &best(&q1), 5);

    // Michael adds domain knowledge P6 = HIGHEST(year) and his own
    // interest P7 = HIGHEST(commission): Q2 = (Q1 & P6) & P7.
    let q2 = paper::example6_q2();
    println!("Michael's Q2 = {q2}\n");
    show("σ[Q2](stock)", &best(&q2), 5);

    // Leslie enters: money matters as much as color now.
    //   Q1* = (P5 ⊗ P8 ⊗ P4) & (P1 ⊗ P2 ⊗ P3)
    let q1_star = paper::example6_q1_star();
    println!("Renegotiated Q1* = {q1_star}\n");
    show("σ[Q2*](stock)", &best(&paper::example6_q2_star()), 5);

    // The same story in Preference SQL. "Note that when mixing customer
    // with vendor preferences Michael had not to worry that potential
    // preference conflicts would crash his used car e-shop."
    let mut db = PrefSql::new();
    db.register("car", stock);
    let sql = "SELECT make, category, color, price, horsepower FROM car \
               PREFERRING color <> 'gray' \
               CASCADE category = 'cabriolet' ELSE category = 'roadster' \
                   AND transmission = 'automatic' AND horsepower AROUND 100 \
               CASCADE LOWEST(price) \
               CASCADE HIGHEST(year) \
               CASCADE HIGHEST(commission)";
    println!("Preference SQL:\n{sql}\n");
    let res = db.execute(sql).expect("query is well-formed");
    if let Some(explain) = &res.explain {
        println!("{explain}\n");
    }
    show("SQL result", &res.relation, 8);

    println!("… and the story might end that everybody is happy with the result. ☺");
}
