//! Grouped preference queries (Def. 16):
//! `σ[P groupby A](R) := σ[A↔ & P](R)`.
//!
//! Operationally "a grouping of R by equal A-values, evaluating for each
//! group Gi of tuples the preference query σ\[P\](Gi)" — and that is
//! what the term `A↔ & P` does on the one evaluation path: its score
//! matrix holds `A`'s projection codes ([`Relation::group_ids`] for
//! several columns), the planner reads `A↔` as a Prop. 10 head on which
//! every row ties, and the head split buckets the rows by code and runs
//! `P`'s kernel inside each bucket. [`Prepared::grouped`] prepares that
//! term, so a grouped query has the result, maintained and window tiers
//! of every other one. The definitional equality is checked in the
//! tests.
//!
//! [`Relation::group_ids`]: pref_relation::Relation::group_ids

use pref_core::eval::CompiledPref;
use pref_core::term::Pref;
use pref_relation::{AttrSet, Relation};

use crate::algorithms::bnl::bnl_generic;
use crate::engine::Prepared;
use crate::error::QueryError;

impl Prepared {
    /// The prepared query of `A↔ & P` (Def. 16) on this query's engine:
    /// its BMO is `σ[P groupby A](R)`, and its levels are `P`'s levels
    /// within each group of equal `A`-values — what a grouped k-best
    /// ranks by.
    pub fn grouped(&self, group_attrs: &AttrSet) -> Result<Prepared, QueryError> {
        let term = Pref::Antichain(group_attrs.clone()).prior(self.term().clone());
        self.engine.prepare(&term, &self.schema)
    }
}

/// The definitional form `σ[A↔ & P](R)` (Def. 16), for cross-checking:
/// generic BNL over the term walk, so it shares no matrix code with the
/// columnar path it checks.
pub fn sigma_groupby_definitional(
    pref: &Pref,
    group_attrs: &AttrSet,
    r: &Relation,
) -> Result<Vec<usize>, QueryError> {
    let term = Pref::Antichain(group_attrs.clone()).prior(pref.clone());
    Ok(bnl_generic(&CompiledPref::compile(&term, r.schema())?, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::optimizer::CacheStatus;
    use pref_core::prelude::*;
    use pref_relation::{attr, rel};

    fn groupby_term(
        pref: &Pref,
        group_attrs: &AttrSet,
        r: &Relation,
    ) -> Result<Vec<usize>, QueryError> {
        let q = Engine::new().prepare(pref, r.schema())?;
        Ok(q.grouped(group_attrs)?.execute(r)?.into_rows())
    }

    fn cars() -> pref_relation::Relation {
        // Example 10's Cars(Make, Price, Oid).
        rel! {
            ("make": Str, "price": Int, "oid": Int);
            ("Audi", 40_000, 1),
            ("BMW", 35_000, 2),
            ("VW", 20_000, 3),
            ("BMW", 50_000, 4),
        }
    }

    #[test]
    fn example10_group_query() {
        // "For each make give me an offer with a price around 40000":
        // σ[P2 groupby Make](Cars) keeps oid 1, 2, 3 (BMW 50000 loses to
        // BMW 35000 on distance to 40000).
        let r = cars();
        let p2 = around("price", 40_000);
        let got = groupby_term(&p2, &AttrSet::single(attr("make")), &r).unwrap();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn groupby_equals_definitional_form() {
        let r = cars();
        for p in [
            around("price", 40_000),
            lowest("price"),
            highest("oid").pareto(lowest("price")),
        ] {
            let a = groupby_term(&p, &AttrSet::single(attr("make")), &r).unwrap();
            let b = sigma_groupby_definitional(&p, &AttrSet::single(attr("make")), &r).unwrap();
            assert_eq!(a, b, "Def. 16 equality failed for {p}");
        }
    }

    #[test]
    fn grouping_by_all_attrs_keeps_everything() {
        let r = cars();
        let all = r.schema().attr_set();
        let got = groupby_term(&lowest("price"), &all, &r).unwrap();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn grouping_by_empty_attr_set_is_plain_bmo() {
        let r = cars();
        let p = lowest("price");
        assert_eq!(
            groupby_term(&p, &AttrSet::empty(), &r).unwrap(),
            crate::bmo::sigma_naive_generic(&p, &r).unwrap()
        );
    }

    #[test]
    fn repeated_groupby_reuses_the_cached_matrix() {
        let engine = Engine::new();
        let r = cars();
        let p = around("price", 40_000);
        let attrs = AttrSet::single(attr("make"));
        let q = engine
            .prepare(&p, r.schema())
            .unwrap()
            .grouped(&attrs)
            .unwrap();
        let first = q.execute(&r).unwrap();
        assert_eq!(engine.cache_stats().misses, 1);
        let second = q.execute(&r).unwrap();
        assert_eq!(first.rows(), second.rows());
        assert_eq!(
            (first.cache(), second.cache()),
            (CacheStatus::Miss, CacheStatus::Hit)
        );
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (1, 1),
            "the second groupby is the cached result"
        );
    }

    #[test]
    fn groupby_falls_back_to_the_generic_backend() {
        // LOWEST over a string column has no f64 embedding: the groupby
        // windows must run on the term walk and still be correct.
        let r = cars();
        let p = lowest("make");
        let attrs = AttrSet::single(attr("make"));
        let a = groupby_term(&p, &attrs, &r).unwrap();
        let b = sigma_groupby_definitional(&p, &attrs, &r).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn multi_attribute_grouping() {
        let r = rel! {
            ("a": Str, "b": Str, "x": Int);
            ("p", "q", 3), ("p", "q", 1), ("p", "r", 9), ("s", "q", 2),
        };
        let got = groupby_term(&lowest("x"), &AttrSet::new(["a", "b"]), &r).unwrap();
        assert_eq!(got, vec![1, 2, 3]);
    }
}
