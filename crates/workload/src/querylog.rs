//! A synthetic customer query log over the car catalog — the substitute
//! for the real INTERSHOP query logs behind the \[KFH01\] result-size
//! benchmark ("typical result sizes of Pareto preferences under BMO query
//! semantics ranged from a few to a few dozens").
//!
//! Each generated query is a Pareto accumulation of 2–5 base preferences
//! sampled from the templates a car-shop search mask offers, optionally
//! prioritised behind a must-have base preference — the shapes Preference
//! SQL's `PREFERRING … AND … CASCADE` produces.

use pref_core::term::{around, between, highest, lowest, neg, pos, pos_pos, Pref};
use pref_query::engine::{Engine, Prepared};
use pref_query::QueryError;
use pref_relation::{attr, predicate_fingerprint, Relation, Schema, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A hard (exact-match) narrowing a customer applies in the search mask
/// before preferences refine the survivors — like a WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Narrow {
    /// `attr = value`.
    Equals(&'static str, Value),
    /// `attr <= value` (numeric).
    AtMost(&'static str, Value),
}

/// One customer query: hard narrowing plus a preference.
#[derive(Debug, Clone)]
pub struct CustomerQuery {
    pub narrowing: Vec<Narrow>,
    pub preference: Pref,
}

impl CustomerQuery {
    /// Apply the hard narrowing to a catalog (the WHERE stage).
    pub fn candidates(&self, catalog: &Relation) -> Relation {
        catalog.select(self.predicate(catalog))
    }

    /// [`CustomerQuery::candidates`] as a *derived view*
    /// ([`Relation::select_derived`]): the result carries
    /// `(catalog generation, narrowing fingerprint)` lineage, so an
    /// engine replaying the log recognizes each round's re-derived
    /// candidate set and serves its score matrices warm.
    pub fn candidates_derived(&self, catalog: &Relation) -> Relation {
        catalog.select_derived(self.predicate(catalog), self.narrowing_fingerprint())
    }

    /// A stable fingerprint of the hard narrowing — the predicate half
    /// of the derived view's lineage key.
    pub fn narrowing_fingerprint(&self) -> u64 {
        let mut rendered = String::new();
        for n in &self.narrowing {
            match n {
                Narrow::Equals(a, v) => rendered.push_str(&format!("eq({a};{v})")),
                Narrow::AtMost(a, v) => rendered.push_str(&format!("le({a};{v})")),
            }
        }
        predicate_fingerprint(rendered.as_bytes())
    }

    fn predicate<'a>(&'a self, catalog: &Relation) -> impl Fn(&pref_relation::Tuple) -> bool + 'a {
        let cols: Vec<(usize, &Narrow)> = self
            .narrowing
            .iter()
            .map(|n| {
                let name = match n {
                    Narrow::Equals(a, _) | Narrow::AtMost(a, _) => *a,
                };
                (
                    catalog
                        .schema()
                        .index_of(&attr(name))
                        .expect("narrowing uses catalog attributes"),
                    n,
                )
            })
            .collect();
        move |t| {
            cols.iter().all(|(c, n)| match n {
                Narrow::Equals(_, v) => &t[*c] == v,
                Narrow::AtMost(_, v) => t[*c].sql_cmp(v).is_some_and(|o| o.is_le()),
            })
        }
    }
}

const COLOR_CHOICES: &[&str] = &[
    "black", "silver", "gray", "white", "blue", "red", "green", "yellow",
];
const MAKE_CHOICES: &[&str] = &["VW", "Opel", "Ford", "BMW", "Mercedes", "Audi", "Toyota"];
const CATEGORY_CHOICES: &[&str] = &[
    "sedan",
    "compact",
    "station wagon",
    "van",
    "suv",
    "cabriolet",
    "roadster",
];

fn pick<'a>(rng: &mut StdRng, xs: &'a [&'a str]) -> &'a str {
    xs[rng.random_range(0..xs.len())]
}

/// One random base preference from the search-mask templates.
fn base_preference(rng: &mut StdRng) -> Pref {
    match rng.random_range(0..10) {
        0 => pos("color", [pick(rng, COLOR_CHOICES)]),
        1 => neg("color", [pick(rng, COLOR_CHOICES)]),
        2 => pos("make", [pick(rng, MAKE_CHOICES), pick(rng, MAKE_CHOICES)]),
        3 => {
            let a = rng.random_range(0..CATEGORY_CHOICES.len());
            let b =
                (a + 1 + rng.random_range(0..CATEGORY_CHOICES.len() - 1)) % CATEGORY_CHOICES.len();
            pos_pos("category", [CATEGORY_CHOICES[a]], [CATEGORY_CHOICES[b]])
                .expect("distinct categories are disjoint")
        }
        4 => around("price", rng.random_range(3..30) * 1_000),
        5 => {
            // Narrow corridors, like a real search mask's price bracket;
            // wide intervals create huge distance-0 tie plateaus that no
            // shopper would formulate.
            let lo = rng.random_range(2..15) * 1_000;
            between("price", lo, lo + rng.random_range(1..=4) * 500)
                .expect("lo <= hi by construction")
        }
        6 => around("horsepower", rng.random_range(6..22) * 10),
        7 => lowest("mileage"),
        8 => lowest("price"),
        _ => highest("year"),
    }
}

/// Generate a log of `n` bare preference terms (no hard narrowing).
pub fn query_log(n: usize, seed: u64) -> Vec<Pref> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| preference_query(&mut rng)).collect()
}

/// Generate a log of `n` full customer queries: hard narrowing plus
/// preference, the shape the \[KFH01\] result-size study measured.
pub fn customer_log(n: usize, seed: u64) -> Vec<CustomerQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| CustomerQuery {
            narrowing: narrowing(&mut rng),
            preference: preference_query(&mut rng),
        })
        .collect()
}

/// A realistic search-mask narrowing: customers almost always fix a make
/// or category and usually cap the price before preferences kick in.
fn narrowing(rng: &mut StdRng) -> Vec<Narrow> {
    let mut out = Vec::with_capacity(2);
    if rng.random_range(0.0..1.0) < 0.6 {
        out.push(Narrow::Equals("make", Value::from(pick(rng, MAKE_CHOICES))));
    } else {
        out.push(Narrow::Equals(
            "category",
            Value::from(pick(rng, CATEGORY_CHOICES)),
        ));
    }
    if rng.random_range(0.0..1.0) < 0.7 {
        out.push(Narrow::AtMost(
            "price",
            Value::from(rng.random_range(6..30) * 1_000),
        ));
    }
    out
}

/// Prepare every query of a log against `schema` once — the session
/// setup step of a replay (parse/rewrite/compile amortized across all
/// subsequent [`replay`] rounds).
pub fn prepare_log(
    engine: &Engine,
    log: &[Pref],
    schema: &Schema,
) -> Result<Vec<Prepared>, QueryError> {
    log.iter().map(|p| engine.prepare(p, schema)).collect()
}

/// Replay a prepared query log against a catalog, returning the total
/// number of best matches across all queries. Executions flow through
/// the engine's score-matrix cache: the first round over a relation
/// generation builds matrices, later rounds (and repeated queries) hit —
/// the streams-of-queries setting the BMO model assumes, measurable via
/// [`Engine::cache_stats`].
pub fn replay(prepared: &[Prepared], catalog: &Relation) -> Result<usize, QueryError> {
    let mut total = 0;
    for q in prepared {
        total += q.execute(catalog)?.rows().len();
    }
    Ok(total)
}

/// Prepare a *customer* log (hard narrowing + preference) against
/// `schema` once — the WHERE-heavy counterpart of [`prepare_log`].
pub fn prepare_customer_log<'a>(
    engine: &Engine,
    log: &'a [CustomerQuery],
    schema: &Schema,
) -> Result<Vec<(Prepared, &'a CustomerQuery)>, QueryError> {
    log.iter()
        .map(|q| Ok((engine.prepare(&q.preference, schema)?, q)))
        .collect()
}

/// Replay a prepared customer log: every query re-derives its candidate
/// set from the catalog ([`CustomerQuery::candidates_derived`]) and runs
/// the preference over it. The derivations are fresh relations each
/// round, but their lineage is stable, so rounds after the first serve
/// their score matrices from the engine's derived-entry cache
/// (`Explain` reports `DerivedHit`; [`Engine::cache_stats`] counts them)
/// — the Preference SQL hard-selection pattern at bench scale.
pub fn replay_customers(
    prepared: &[(Prepared, &CustomerQuery)],
    catalog: &Relation,
) -> Result<usize, QueryError> {
    let mut total = 0;
    for (q, customer) in prepared {
        let candidates = customer.candidates_derived(catalog);
        total += q.execute(&candidates)?.rows().len();
    }
    Ok(total)
}

fn preference_query(rng: &mut StdRng) -> Pref {
    let width = rng.random_range(2..=4);
    let mut parts: Vec<Pref> = Vec::with_capacity(width);
    for _ in 0..width {
        let candidate = base_preference(rng);
        // One preference per attribute, like a search mask.
        if parts
            .iter()
            .all(|p| p.attributes().is_disjoint(&candidate.attributes()))
        {
            parts.push(candidate);
        }
    }
    let pareto = Pref::pareto_all(parts).expect("at least one part sampled");
    if rng.random_range(0.0..1.0) < 0.3 {
        // A must-have in front, like CASCADE in Preference SQL.
        let head = pos("transmission", ["automatic"]);
        head.prior(pareto)
    } else {
        pareto
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_query::bmo::sigma_naive_generic;

    #[test]
    fn deterministic_log() {
        let a = query_log(20, 4);
        let b = query_log(20, 4);
        let fmt = |v: &[Pref]| v.iter().map(|p| p.to_string()).collect::<Vec<_>>();
        assert_eq!(fmt(&a), fmt(&b));
    }

    #[test]
    fn queries_reference_catalog_attributes() {
        let schema = crate::cars::car_schema();
        for q in query_log(100, 17) {
            for a in q.attributes().iter() {
                assert!(
                    schema.index_of(a).is_some(),
                    "query references unknown attribute {a}"
                );
            }
        }
    }

    #[test]
    fn queries_compile_and_run_on_the_catalog() {
        let cars = crate::cars::catalog(300, 2);
        for q in query_log(25, 6) {
            let res = sigma_naive_generic(&q, &cars).unwrap();
            assert!(!res.is_empty(), "BMO never returns empty on nonempty R");
        }
    }

    #[test]
    fn customer_log_narrowing_reduces_candidates() {
        let catalog = crate::cars::catalog(2_000, 3);
        for q in customer_log(30, 9) {
            let candidates = q.candidates(&catalog);
            assert!(candidates.len() < catalog.len());
            // The preference still runs on whatever survives.
            if !candidates.is_empty() {
                assert!(!sigma_naive_generic(&q.preference, &candidates)
                    .unwrap()
                    .is_empty());
            }
        }
    }

    #[test]
    fn replay_amortizes_across_rounds_and_stays_correct() {
        let cars = crate::cars::catalog(400, 2);
        let log = query_log(12, 6);
        let engine = Engine::new();
        let prepared = prepare_log(&engine, &log, cars.schema()).unwrap();

        let round1 = replay(&prepared, &cars).unwrap();
        let after_first = engine.cache_stats();
        let round2 = replay(&prepared, &cars).unwrap();
        let after_second = engine.cache_stats();

        assert_eq!(round1, round2, "replay must be deterministic");
        assert_eq!(
            after_second.misses, after_first.misses,
            "second round must not rebuild any matrix"
        );
        assert!(
            after_second.hits > after_first.hits,
            "second round must hit the cache"
        );

        // Replay agrees with the Def. 15 oracle, query by query.
        for (p, q) in log.iter().zip(&prepared) {
            assert_eq!(
                q.execute(&cars).unwrap().into_rows(),
                sigma_naive_generic(p, &cars).unwrap(),
                "prepared replay diverged for {p}"
            );
        }
    }

    #[test]
    fn customer_replay_amortizes_via_lineage_and_stays_correct() {
        let catalog = crate::cars::catalog(400, 3);
        let log = customer_log(10, 9);
        let engine = Engine::new();
        let prepared = prepare_customer_log(&engine, &log, catalog.schema()).unwrap();

        let round1 = replay_customers(&prepared, &catalog).unwrap();
        let after_first = engine.cache_stats();
        let round2 = replay_customers(&prepared, &catalog).unwrap();
        let after_second = engine.cache_stats();

        assert_eq!(round1, round2, "replay must be deterministic");
        assert_eq!(
            after_second.misses, after_first.misses,
            "round two re-derives the same subsets: no rebuilds"
        );
        assert!(
            after_second.derived_hits > after_first.derived_hits,
            "re-derived candidate sets must resolve via lineage"
        );

        // Candidate derivations agree, and the engine's answer on the
        // derived view matches the Def. 15 oracle on the plain copy,
        // query by query.
        for (prepared, q) in &prepared {
            let derived = q.candidates_derived(&catalog);
            let plain = q.candidates(&catalog);
            assert_eq!(format!("{derived}"), format!("{plain}"));
            assert!(derived.lineage().is_some());
            assert_eq!(
                prepared.execute(&derived).unwrap().into_rows(),
                sigma_naive_generic(&q.preference, &plain).unwrap()
            );
        }
    }

    #[test]
    fn attribute_sets_within_one_query_are_disjoint() {
        for q in query_log(200, 5) {
            if let Pref::Pareto(children) = &q {
                for i in 0..children.len() {
                    for j in (i + 1)..children.len() {
                        assert!(children[i]
                            .attributes()
                            .is_disjoint(&children[j].attributes()));
                    }
                }
            }
        }
    }
}
