//! Groundwork for e-negotiation (§7: "The conflict tolerance of our
//! preference model forms the basis for research concerned with
//! e-negotiations and e-haggling").
//!
//! Two ingredients from the paper:
//!
//! * **unranked values are the compromise reservoir** (§4.1): tuples the
//!   parties' combined order leaves unranked are exactly where
//!   negotiation happens;
//! * **levels generalise BMO** (Def. 2): `σ[P](R)` is level 1 of the
//!   database preference; conceding one level at a time exposes the
//!   next-best alternatives without ever flooding.
//!
//! Both run through the engine: the frontier is one
//! [`Prepared::execute`], and levels are [`Prepared::layers`].

use pref_core::term::Pref;
use pref_relation::Relation;

use crate::engine::{Engine, Prepared};
use crate::error::QueryError;

impl Prepared {
    /// Level-based relaxation: all rows whose level in the database
    /// preference `P_R` is at most `max_level`, ascending. `max_level =
    /// 1` is exactly `σ[P](R)`; higher levels concede one better-than
    /// step at a time.
    pub fn sigma_levels(&self, r: &Relation, max_level: u32) -> Result<Vec<usize>, QueryError> {
        let max = max_level as usize;
        let (layers, _) = self.layers(r, |layers| layers.len() >= max)?;
        let mut rows: Vec<usize> = layers.into_iter().take(max).flatten().collect();
        rows.sort_unstable();
        Ok(rows)
    }
}

/// One row of a two-party negotiation table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Offer {
    /// Row index into the relation.
    pub row: usize,
    /// Quality level under the first party's preference (1 = best).
    pub level_a: u32,
    /// Quality level under the second party's preference.
    pub level_b: u32,
}

/// The fair negotiation frontier between two parties.
///
/// The frontier is `σ[Pa ⊗ Pb](R)` — by the non-discrimination theorem
/// (Prop. 5) neither party's view dominates — annotated with each
/// party's private quality level so the parties can see what a given
/// compromise costs whom.
#[derive(Debug, Clone)]
pub struct NegotiationTable {
    offers: Vec<Offer>,
}

impl NegotiationTable {
    /// Build the table for parties `a` and `b` over `r` on `engine`.
    pub fn build(engine: &Engine, a: &Pref, b: &Pref, r: &Relation) -> Result<Self, QueryError> {
        let joint = Pref::Pareto(vec![a.clone(), b.clone()]);
        let frontier = engine.prepare(&joint, r.schema())?.execute(r)?.into_rows();

        // Each party's levels, peeled until every frontier row has one.
        let level_of = |p: &Pref| -> Result<Vec<u32>, QueryError> {
            let mut level = vec![0; r.len()];
            let mut unranked = frontier.len();
            engine.prepare(p, r.schema())?.layers(r, |layers| {
                for &i in layers.last().into_iter().flatten() {
                    level[i] = layers.len() as u32;
                    unranked -= usize::from(frontier.binary_search(&i).is_ok());
                }
                unranked == 0
            })?;
            Ok(level)
        };
        let la = level_of(a)?;
        let lb = level_of(b)?;

        let mut offers: Vec<Offer> = frontier
            .into_iter()
            .map(|row| Offer {
                row,
                level_a: la[row],
                level_b: lb[row],
            })
            .collect();
        // Stable, symmetric presentation: best combined levels first.
        offers.sort_by_key(|o| (o.level_a + o.level_b, o.level_a.max(o.level_b), o.row));
        Ok(NegotiationTable { offers })
    }

    /// The frontier offers, best combined quality first.
    pub fn offers(&self) -> &[Offer] {
        &self.offers
    }

    /// Offers both parties rate at their personal level 1 — deals that
    /// need no negotiation at all.
    pub fn unanimous(&self) -> Vec<&Offer> {
        self.offers
            .iter()
            .filter(|o| o.level_a == 1 && o.level_b == 1)
            .collect()
    }

    /// The most balanced compromise: minimal level gap between the
    /// parties, ties broken by combined quality.
    pub fn most_balanced(&self) -> Option<&Offer> {
        self.offers
            .iter()
            .min_by_key(|o| (o.level_a.abs_diff(o.level_b), o.level_a + o.level_b, o.row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmo::sigma_naive_generic;
    use pref_core::prelude::*;
    use pref_relation::rel;

    fn sigma_levels(p: &Pref, r: &Relation, max_level: u32) -> Result<Vec<usize>, QueryError> {
        Engine::new()
            .prepare(p, r.schema())?
            .sigma_levels(r, max_level)
    }

    fn build(a: &Pref, b: &Pref, r: &Relation) -> Result<NegotiationTable, QueryError> {
        NegotiationTable::build(&Engine::new(), a, b, r)
    }

    fn car_db() -> Relation {
        rel! {
            ("price": Int, "commission": Int);
            (10_000, 300),   // cheap, low commission
            (12_000, 900),   // mid
            (18_000, 1_500), // expensive, high commission
            (11_000, 250),   // cheap AND low commission — dominated for vendor
        }
    }

    #[test]
    fn level_one_is_bmo() {
        let r = car_db();
        let p = lowest("price").pareto(highest("commission"));
        assert_eq!(
            sigma_levels(&p, &r, 1).unwrap(),
            sigma_naive_generic(&p, &r).unwrap()
        );
    }

    #[test]
    fn levels_relax_monotonically() {
        let r = car_db();
        let p = lowest("price");
        let l1 = sigma_levels(&p, &r, 1).unwrap();
        let l2 = sigma_levels(&p, &r, 2).unwrap();
        let l99 = sigma_levels(&p, &r, 99).unwrap();
        assert!(l1.len() <= l2.len());
        assert!(l1.iter().all(|i| l2.contains(i)));
        assert_eq!(l99.len(), r.len());
        // LOWEST(price) is a chain: level 1 = the unique cheapest.
        assert_eq!(l1, vec![0]);
        assert_eq!(l2, vec![0, 3]);
    }

    #[test]
    fn negotiation_frontier_is_the_pareto_set() {
        let r = car_db();
        let customer = lowest("price");
        let vendor = highest("commission");
        let table = build(&customer, &vendor, &r).unwrap();
        let frontier: Vec<usize> = {
            let mut v: Vec<usize> = table.offers().iter().map(|o| o.row).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            frontier,
            sigma_naive_generic(&customer.pareto(vendor), &r).unwrap()
        );
    }

    #[test]
    fn levels_expose_the_tradeoff() {
        let r = car_db();
        let table = build(&lowest("price"), &highest("commission"), &r).unwrap();
        for o in table.offers() {
            // On this anti-correlated toy set, nobody gets a unanimous
            // deal: what one party loves the other ranks worse.
            assert!(o.level_a == 1 || o.level_b == 1 || o.level_a.abs_diff(o.level_b) <= 1);
        }
        assert!(table.unanimous().is_empty());
        let balanced = table.most_balanced().unwrap();
        // Row 1 (12k, 900) is the middle ground.
        assert_eq!(balanced.row, 1);
    }

    #[test]
    fn unanimous_deals_shortcut_negotiation() {
        let r = rel! {
            ("price": Int, "commission": Int);
            (10_000, 900), // cheapest AND highest commission
            (12_000, 300),
        };
        let table = build(&lowest("price"), &highest("commission"), &r).unwrap();
        let unanimous = table.unanimous();
        assert_eq!(unanimous.len(), 1);
        assert_eq!(unanimous[0].row, 0);
    }
}
