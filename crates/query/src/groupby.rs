//! Grouped preference queries (Def. 16):
//! `σ[P groupby A](R) := σ[A↔ & P](R)`.
//!
//! Operationally "a grouping of R by equal A-values, evaluating for each
//! group Gi of tuples the preference query σ\[P\](Gi)" — implemented by
//! [`Prepared::sigma_groupby`], an operator of the prepared query `P`
//! on the columnar path: [`Relation::group_ids`] partitions the row ids
//! once (dictionary/fingerprint encoding, no per-row `Tuple` projection
//! keys), and every group's BMO window runs over `P`'s engine-cached
//! score matrix of the *whole* relation, so one materialization serves
//! all groups — and all repetitions of the query on an unchanged
//! relation. The definitional equality is checked in the tests.

use pref_core::eval::CompiledPref;
use pref_core::term::Pref;
use pref_relation::{AttrSet, Relation};

use crate::algorithms::bnl::{bnl_generic, bnl_window};
use crate::engine::Prepared;
use crate::error::QueryError;
use crate::optimizer::CacheStatus;

impl Prepared {
    /// `σ[P groupby A](R)` (Def. 16) on the columnar path: partition row
    /// ids once via [`Relation::group_ids`], then run the per-group BMO
    /// windows over this query's engine-cached score matrix
    /// ([`Prepared::matrix`]), so the same matrix serves every group —
    /// and every later query on the same relation generation. Falls back
    /// to the generic term-walk backend when the term does not
    /// materialize (or the optimizer disables materialization). Returns
    /// the rows and the tier the matrix came from.
    pub fn sigma_groupby(
        &self,
        group_attrs: &AttrSet,
        r: &Relation,
    ) -> Result<(Vec<usize>, CacheStatus), QueryError> {
        self.check_schema(r)?;
        let group_cols = r.schema().resolve(group_attrs)?;
        let (ids, n_groups) = r.group_ids(&group_cols);
        let (matrix, cache) = self.tiered_matrix(r);

        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        for (i, &g) in ids.iter().enumerate() {
            members[g as usize].push(i);
        }

        let mut result = match &matrix {
            Some(m) => group_windows(members, |x, y| m.better(x, y)),
            None => group_windows(members, |x, y| self.compiled().better(r.row(x), r.row(y))),
        };
        result.sort_unstable();
        Ok((result, cache))
    }

    /// The prepared query of `A↔ & P` (Def. 16) on this query's engine:
    /// its BMO is `σ[P groupby A](R)`, and its levels are `P`'s levels
    /// within each group of equal `A`-values — what a grouped k-best
    /// ranks by.
    pub fn grouped(&self, group_attrs: &AttrSet) -> Result<Prepared, QueryError> {
        let term = Pref::Antichain(group_attrs.clone()).prior(self.term().clone());
        self.engine.prepare(&term, &self.schema)
    }
}

/// One BNL window per group of pre-partitioned (global) row ids, with a
/// pluggable dominance backend.
fn group_windows(
    members: Vec<Vec<usize>>,
    better: impl Fn(usize, usize) -> bool + Copy,
) -> Vec<usize> {
    members
        .into_iter()
        .flat_map(|group| bnl_window(better, Vec::new(), group))
        .collect()
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
    use pref_core::prelude::*;
    use pref_relation::{attr, rel};

    fn sigma_groupby(
        pref: &Pref,
        group_attrs: &AttrSet,
        r: &Relation,
    ) -> Result<Vec<usize>, QueryError> {
        Ok((Engine::new().prepare(pref, r.schema())?)
            .sigma_groupby(group_attrs, r)?
            .0)
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
        let got = sigma_groupby(&p2, &AttrSet::single(attr("make")), &r).unwrap();
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
            let a = sigma_groupby(&p, &AttrSet::single(attr("make")), &r).unwrap();
            let b = sigma_groupby_definitional(&p, &AttrSet::single(attr("make")), &r).unwrap();
            assert_eq!(a, b, "Def. 16 equality failed for {p}");
        }
    }

    #[test]
    fn grouping_by_all_attrs_keeps_everything() {
        let r = cars();
        let all = r.schema().attr_set();
        let got = sigma_groupby(&lowest("price"), &all, &r).unwrap();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn grouping_by_empty_attr_set_is_plain_bmo() {
        let r = cars();
        let p = lowest("price");
        assert_eq!(
            sigma_groupby(&p, &AttrSet::empty(), &r).unwrap(),
            crate::bmo::sigma_naive_generic(&p, &r).unwrap()
        );
    }

    #[test]
    fn repeated_groupby_reuses_the_cached_matrix() {
        let engine = Engine::new();
        let r = cars();
        let p = around("price", 40_000);
        let attrs = AttrSet::single(attr("make"));
        let q = engine.prepare(&p, r.schema()).unwrap();
        let (first, cold) = q.sigma_groupby(&attrs, &r).unwrap();
        assert_eq!(engine.cache_stats().misses, 1);
        let (second, warm) = q.sigma_groupby(&attrs, &r).unwrap();
        assert_eq!(first, second);
        assert_eq!((cold, warm), (CacheStatus::Miss, CacheStatus::Hit));
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (1, 1),
            "second groupby must reuse the whole-relation matrix"
        );
    }

    #[test]
    fn groupby_falls_back_to_the_generic_backend() {
        // LOWEST over a string column has no f64 embedding: the groupby
        // windows must run on the term walk and still be correct.
        let r = cars();
        let p = lowest("make");
        let attrs = AttrSet::single(attr("make"));
        let a = sigma_groupby(&p, &attrs, &r).unwrap();
        let b = sigma_groupby_definitional(&p, &attrs, &r).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn multi_attribute_grouping() {
        let r = rel! {
            ("a": Str, "b": Str, "x": Int);
            ("p", "q", 3), ("p", "q", 1), ("p", "r", 9), ("s", "q", 2),
        };
        let got = sigma_groupby(&lowest("x"), &AttrSet::new(["a", "b"]), &r).unwrap();
        assert_eq!(got, vec![1, 2, 3]);
    }
}
