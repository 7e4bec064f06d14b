//! The e-shop study: how BMO queries dodge the empty-result problem and
//! the flooding effect, and the [KFH01] observation that Pareto result
//! sizes land "from a few to a few dozens" on realistic catalogs.
//!
//! ```bash
//! cargo run --release --example eshop_search
//! ```

use preferences::prelude::*;
use preferences::query::stats::result_size;
use preferences::workload::{cars, querylog};

fn main() {
    let catalog = cars::catalog(20_000, 7);
    println!("e-shop catalog: {} offers\n", catalog.len());

    // 1. The exact-match pain: a hard filter over four attributes.
    let hard = catalog.select(|t| {
        t[0] == Value::from("Audi")                       // make
            && t[2] == Value::from("yellow")              // color
            && t[4].sql_cmp(&Value::from(9_000)).is_some_and(|o| o.is_le()) // price
            && t[7].sql_cmp(&Value::from(1_999)).is_some_and(|o| o.is_ge()) // year
    });
    println!(
        "Exact-match query (make=Audi, color=yellow, price<=9000, year>=1999): {} rows",
        hard.len()
    );
    println!("  → the notorious empty-result problem\n");

    // 2. The other extreme: disjunctive weakening floods the user.
    let flood = catalog.select(|t| t[0] == Value::from("Audi") || t[2] == Value::from("yellow"));
    println!(
        "Disjunctive rescue (make=Audi OR color=yellow): {} rows",
        flood.len()
    );
    println!("  → the flooding effect\n");

    // 3. The same wishes as soft constraints under BMO.
    let wish = pos("make", ["Audi"])
        .pareto(pos("color", ["yellow"]))
        .pareto(around("price", 9_000))
        .pareto(highest("year"));
    let engine = Engine::new();
    let best = engine
        .prepare(&wish, catalog.schema())
        .and_then(|q| q.execute_rel(&catalog))
        .expect("catalog schema covers the wish");
    println!("BMO query σ[{wish}]:");
    println!(
        "  {} best matches — never empty, never flooding\n",
        best.len()
    );
    for t in best.iter().take(5) {
        println!("   {t}");
    }

    // 4. The [KFH01] reproduction: result sizes of a whole query log —
    //    each customer query is a hard search-mask narrowing plus a
    //    Pareto preference, as in the product benchmark.
    println!("\nResult-size distribution over 200 synthetic customer queries");
    println!("(reproducing the Preference SQL experience report [KFH01]):\n");
    let log = querylog::customer_log(200, 41);
    let mut sizes: Vec<usize> = log
        .iter()
        .filter_map(|q| {
            let candidates = q.candidates(&catalog);
            if candidates.is_empty() {
                return None;
            }
            Some(
                result_size(&engine, &q.preference, &candidates)
                    .expect("catalog schema covers log queries"),
            )
        })
        .collect();
    sizes.sort_unstable();

    let bucket = |lo: usize, hi: usize| sizes.iter().filter(|&&s| s >= lo && s <= hi).count();
    let n = sizes.len();
    println!("  size 1        : {:3} queries", bucket(1, 1));
    println!("  a few (2-10)  : {:3} queries", bucket(2, 10));
    println!("  dozens (11-50): {:3} queries", bucket(11, 50));
    println!("  more  (>50)   : {:3} queries", bucket(51, usize::MAX));
    println!(
        "\n  median {}  p90 {}  max {}  (catalog n = {})",
        sizes[n / 2],
        sizes[(n * 9) / 10],
        sizes[n - 1],
        catalog.len()
    );
    println!("\n\"typical result sizes … ranged from a few to a few dozens,");
    println!(" which is exactly what's required in shopping situations.\"");
}
