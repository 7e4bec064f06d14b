//! The §7 roadmap's "persistent preference repository" and "personalized
//! query composition": store wishes once, compose queries by reference,
//! reload across sessions.
//!
//! ```bash
//! cargo run --example preference_repository
//! ```

use preferences::core::repo::Repository;
use preferences::prelude::*;
use preferences::workload::cars;

fn main() {
    // Julia stores her wish list once (Example 6 vocabulary).
    let text = "\
# Julia's wish list, Example 6
category     = POS/POS(category; {'cabriolet'}; {'roadster'})
transmission = POS(transmission; {'automatic'})
power        = AROUND(horsepower; 100)
budget       = LOWEST(price)
color        = NEG(color; {'gray'})

# Composed queries reference stored wishes with $name.
q1 = ($color & (($category ⊗ $transmission ⊗ $power) & $budget))

# Michael the dealer adds his view on top of Julia's.
q2 = ($color & (($category ⊗ $transmission ⊗ $power) & $budget) \
      & HIGHEST(year) & HIGHEST(commission))
";
    // (line continuation above is just for the doc comment; repositories
    // keep one entry per line)
    let text = text.replace("\\\n      ", " ");

    let repo = Repository::from_text(&text).expect("repository text is well-formed");
    println!("loaded {} entries:", repo.len());
    for name in repo.names() {
        println!(
            "  {name:12} = {}",
            repo.get(name).expect("listed name exists")
        );
    }

    // Persist and reload — the repository is plain text.
    let path = std::env::temp_dir().join("julia.prefs");
    repo.save(&path).expect("temp dir is writable");
    let reloaded = Repository::load(&path).expect("file just written");
    assert_eq!(reloaded.len(), repo.len());
    println!("\nsaved to {} and reloaded identically", path.display());

    // Run the composed query against today's stock.
    let stock = cars::catalog(2_000, 2002);
    let q1 = reloaded.get("q1").expect("q1 defined");
    let best = Engine::new()
        .prepare(q1, stock.schema())
        .and_then(|q| q.execute_rel(&stock))
        .expect("catalog schema covers q1");
    println!("\nσ[q1](stock) → {} best matches, e.g.:", best.len());
    for t in best.iter().take(3) {
        println!("  {t}");
    }

    // Single terms also round-trip through plain strings:
    let wish =
        parse_term("(NEG(color; {'gray'}) & LOWEST(price))").expect("paper-notation term parses");
    println!("\nparsed ad-hoc term: {wish}");
    std::fs::remove_file(&path).ok();
}
