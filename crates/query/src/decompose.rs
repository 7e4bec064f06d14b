//! Decomposition-based evaluation of complex preference queries
//! (Propositions 8–12) — the paper's "divide & conquer" foundation.
//!
//! * Prop. 8: `σ[P1+P2](R) = σ[P1](R) ∩ σ[P2](R)`
//! * Prop. 9: `σ[P1♦P2](R) = σ[P1](R) ∪ σ[P2](R) ∪ YY(P1,P2)_R`
//! * Prop. 10: `σ[P1&P2](R) = σ[P1](R) ∩ σ[P2 groupby A1](R)` (disjoint A)
//! * Prop. 11: `σ[P1&P2](R) = σ[P2](σ[P1](R))` when P1 is a chain
//! * Prop. 12: Pareto = the two prioritised views plus the `YY` overlap,
//!   obtained by routing `⊗` through the non-discrimination theorem
//!   (Prop. 5) and recursing.
//!
//! One reading note (also in DESIGN.md): Def. 17 writes the better-than
//! sets `P↑v` of `YY` over `dom(A)`, but the appendix proof of Prop. 9 —
//! and Example 11's computation — quantify the common dominator over
//! `R[A]`. The R-relative reading is the one that makes Prop. 9 true for
//! database preferences, and is what [`Engine::yy`] implements.

use std::collections::HashSet;

use pref_core::term::Pref;
use pref_relation::{predicate_fingerprint, Relation};

use crate::algorithms::bnl::{bnl_generic, bnl_matrix};
use crate::engine::{Engine, Prepared};
use crate::error::QueryError;

impl Engine {
    /// Evaluate `σ[P](R)` by structural decomposition, falling back to
    /// BNL for sub-terms with no applicable theorem. Returns sorted row
    /// indices. Every sub-query of the recursion (the decomposed views,
    /// `YY` overlaps, the BNL fallbacks) fetches its score matrix from
    /// the engine cache instead of re-walking the term per tuple pair —
    /// and the σ\[P1\](R) sub-relations of Prop. 11 cascades are derived
    /// views ([`Relation::take_rows_derived`]), so repeating the
    /// decomposition over an unchanged relation serves even the
    /// recursive stages warm.
    pub fn sigma_decomposed(&self, pref: &Pref, r: &Relation) -> Result<Vec<usize>, QueryError> {
        let mut out = eval(self, pref, r)?;
        out.sort_unstable();
        Ok(out)
    }
}

/// A stable fingerprint for the row subset `σ[P](R)` — the lineage a
/// cascade sub-relation carries (`P`'s display form is canonical).
fn sigma_fp(p: &Pref) -> u64 {
    predicate_fingerprint(format!("σ[{p}]").as_bytes())
}

fn eval(engine: &Engine, pref: &Pref, r: &Relation) -> Result<Vec<usize>, QueryError> {
    match pref {
        // Prop. 8.
        Pref::Union(l, rt) => {
            let a: HashSet<usize> = eval(engine, l, r)?.into_iter().collect();
            Ok(eval(engine, rt, r)?
                .into_iter()
                .filter(|i| a.contains(i))
                .collect())
        }
        // Prop. 9.
        Pref::Inter(l, rt) => {
            let mut set: HashSet<usize> = eval(engine, l, r)?.into_iter().collect();
            set.extend(eval(engine, rt, r)?);
            set.extend(engine.yy(l, rt, r)?);
            Ok(set.into_iter().collect())
        }
        Pref::Prior(children) if children.len() >= 2 => {
            let p1 = children[0].clone();
            let rest = if children.len() == 2 {
                children[1].clone()
            } else {
                Pref::Prior(children[1..].to_vec())
            };
            let a1 = p1.attributes();

            if p1.is_chain() {
                // Prop. 11: cascade — evaluate the tail on σ[P1](R). The
                // sub-relation is a *derived view*: its rows are a
                // deterministic function of `r`'s content (sorted so
                // set-built intermediates cannot leak nondeterministic
                // row order into the lineage contract), so the tail's
                // matrices stay cache-servable across repetitions.
                let mut s1 = eval(engine, &p1, r)?;
                s1.sort_unstable();
                let sub = r.take_rows_derived(&s1, sigma_fp(&p1));
                let inner = eval(engine, &rest, &sub)?;
                return Ok(inner.into_iter().map(|i| s1[i]).collect());
            }
            // Prop. 10: grouping, the term `A1↔ & P2` (Def. 16). With an
            // anti-chain head the pref *is* that term: evaluating it so
            // would recur on it forever, so it runs directly below.
            if a1.is_disjoint(&rest.attributes()) && !matches!(p1, Pref::Antichain(_)) {
                let s1: HashSet<usize> = eval(engine, &p1, r)?.into_iter().collect();
                let rest = engine.prepare(&rest, r.schema())?;
                let grouped = rest.grouped(&a1)?.execute(r)?.into_rows();
                return Ok(grouped.into_iter().filter(|i| s1.contains(i)).collect());
            }
            // Shared attributes (the optimizer's rewrite pass usually
            // removes this case via Prop. 4a first) or a grouping head:
            // no decomposition theorem — evaluate directly.
            Ok(direct(&engine.prepare(pref, r.schema())?, r))
        }
        Pref::Pareto(children) if children.len() >= 2 => {
            // Prop. 5 / Prop. 12: ⊗ → (&, &) ♦-composition, then recurse.
            let p1 = children[0].clone();
            let p2 = if children.len() == 2 {
                children[1].clone()
            } else {
                Pref::Pareto(children[1..].to_vec())
            };
            let nondiscrimination = Pref::Inter(
                Pref::Prior(vec![p1.clone(), p2.clone()]).into(),
                Pref::Prior(vec![p2, p1]).into(),
            );
            eval(engine, &nondiscrimination, r)
        }
        // Leaves and terms without a decomposition: direct evaluation.
        _ => Ok(direct(&engine.prepare(pref, r.schema())?, r)),
    }
}

/// BNL over the engine-cached matrix when the sub-term materializes,
/// generic BNL when [`Prepared::matrix`](crate::Prepared::matrix)
/// declines (the term does not materialize, or the optimizer disables
/// materialization). Deliberately *not* `Prepared::execute`: that would
/// re-enter algorithm selection (infinite recursion under a forced
/// `Decomposed`), while the decomposition's fallback is BNL by
/// construction.
fn direct(q: &Prepared, r: &Relation) -> Vec<usize> {
    match q.matrix(r) {
        Some(m) => bnl_matrix(&m),
        None => bnl_generic(q.compiled(), r),
    }
}

impl Engine {
    /// `YY(P1, P2)_R` (Def. 17c, R-relative reading): tuples non-maximal
    /// in both database preferences whose better-than sets within R
    /// share no common dominator — exactly the extra maxima intersection
    /// `♦` creates. The pairwise dominance tests run on engine-cached
    /// score matrices where the terms materialize (term-walk fallback
    /// otherwise) — the O(n²) common-dominator scan is the hottest loop
    /// of the decomposition evaluator.
    pub fn yy(&self, p1: &Pref, p2: &Pref, r: &Relation) -> Result<Vec<usize>, QueryError> {
        let q1 = self.prepare(p1, r.schema())?;
        let q2 = self.prepare(p2, r.schema())?;
        let m1 = q1.matrix(r);
        let m2 = q2.matrix(r);
        let better1 = |x: usize, y: usize| match &m1 {
            Some(m) => m.better(x, y),
            None => q1.compiled().better(r.row(x), r.row(y)),
        };
        let better2 = |x: usize, y: usize| match &m2 {
            Some(m) => m.better(x, y),
            None => q2.compiled().better(r.row(x), r.row(y)),
        };
        let max1: HashSet<usize> = match &m1 {
            Some(m) => bnl_matrix(m),
            None => bnl_generic(q1.compiled(), r),
        }
        .into_iter()
        .collect();
        let max2: HashSet<usize> = match &m2 {
            Some(m) => bnl_matrix(m),
            None => bnl_generic(q2.compiled(), r),
        }
        .into_iter()
        .collect();

        let n = r.len();
        let mut out = Vec::new();
        for i in 0..n {
            if max1.contains(&i) || max2.contains(&i) {
                continue;
            }
            // P1↑t ∩ P2↑t ∩ R[A] = ∅ ?
            let has_common_dominator = (0..n).any(|v| better1(i, v) && better2(i, v));
            if !has_common_dominator {
                out.push(i);
            }
        }
        Ok(out)
    }
}

/// The three components of the Pareto decomposition theorem (Prop. 12),
/// exposed for inspection (the `repro` harness prints them):
///
/// ```text
/// σ[P1⊗P2](R) = (σ[P1](R) ∩ σ[P2 groupby A1](R))
///             ∪ (σ[P2](R) ∩ σ[P1 groupby A2](R))
///             ∪ YY(P1&P2, P2&P1)_R
/// ```
///
/// Requires `A1 ∩ A2 = ∅` (the theorem routes through Prop. 10).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParetoDecomposition {
    /// Maxima of `(P1 & P2)_R`.
    pub first: Vec<usize>,
    /// Maxima of `(P2 & P1)_R`.
    pub second: Vec<usize>,
    /// Values maximal in neither prioritised view.
    pub overlap_yy: Vec<usize>,
}

impl ParetoDecomposition {
    /// The union of the three components, sorted — `σ[P1⊗P2](R)`.
    pub fn combined(&self) -> Vec<usize> {
        let mut set: HashSet<usize> = self.first.iter().copied().collect();
        set.extend(self.second.iter().copied());
        set.extend(self.overlap_yy.iter().copied());
        let mut v: Vec<usize> = set.into_iter().collect();
        v.sort_unstable();
        v
    }
}

impl Engine {
    /// Compute the Prop. 12 decomposition of `σ[P1 ⊗ P2](R)` for
    /// preferences over disjoint attribute sets: the two prioritised
    /// views, both groupings, and the `YY` overlap all run on
    /// engine-cached score matrices.
    pub fn pareto_decomposition(
        &self,
        p1: &Pref,
        p2: &Pref,
        r: &Relation,
    ) -> Result<ParetoDecomposition, QueryError> {
        let a1 = p1.attributes();
        let a2 = p2.attributes();
        if !a1.is_disjoint(&a2) {
            return Err(QueryError::AlgorithmMismatch {
                algorithm: "Prop. 12 decomposition",
                term: format!("({p1} ⊗ {p2})"),
                reason: "requires disjoint attribute sets (use Prop. 4a/6 first)",
            });
        }

        let (q1, q2) = (self.prepare(p1, r.schema())?, self.prepare(p2, r.schema())?);
        let s1: HashSet<usize> = direct(&q1, r).into_iter().collect();
        let s2: HashSet<usize> = direct(&q2, r).into_iter().collect();
        let g1 = q2.grouped(&a1)?.execute(r)?.into_rows(); // σ[P2 groupby A1](R)
        let g2 = q1.grouped(&a2)?.execute(r)?.into_rows(); // σ[P1 groupby A2](R)

        let first: Vec<usize> = g1.into_iter().filter(|i| s1.contains(i)).collect();
        let second: Vec<usize> = g2.into_iter().filter(|i| s2.contains(i)).collect();
        let overlap_yy = self.yy(
            &Pref::Prior(vec![p1.clone(), p2.clone()]),
            &Pref::Prior(vec![p2.clone(), p1.clone()]),
            r,
        )?;

        Ok(ParetoDecomposition {
            first,
            second,
            overlap_yy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmo::sigma_naive_generic;
    use pref_core::prelude::*;
    use pref_relation::rel;

    fn sigma_decomposed(p: &Pref, r: &Relation) -> Result<Vec<usize>, QueryError> {
        Engine::new().sigma_decomposed(p, r)
    }

    #[test]
    fn example11_decomposition() {
        // P1 = LOWEST(A), P2 = HIGHEST(A) = P1∂, R = {3, 6, 9}.
        let r = rel! { ("a": Int); (3,), (6,), (9,) };
        let p1 = lowest("a");
        let p2 = highest("a");

        // σ[P1⊗P2](R) = R (Prop. 6 + Prop. 3g).
        let pareto = Pref::Pareto(vec![p1.clone(), p2.clone()]);
        assert_eq!(sigma_naive_generic(&pareto, &r).unwrap(), vec![0, 1, 2]);
        assert_eq!(sigma_decomposed(&pareto, &r).unwrap(), vec![0, 1, 2]);

        // The paper's countercheck: σ[P2](σ[P1](R)) = {3}, σ[P1](σ[P2](R))
        // = {9}, and YY(P1&P2, P2&P1)_R = {6}.
        let yy_set = Engine::new()
            .yy(
                &Pref::Prior(vec![p1.clone(), p2.clone()]),
                &Pref::Prior(vec![p2, p1]),
                &r,
            )
            .unwrap();
        assert_eq!(yy_set, vec![1]); // row of value 6
    }

    #[test]
    fn example7_nondiscrimination_evaluation() {
        // Car-DB: ⊗ evaluated by decomposition equals naive.
        let r = rel! {
            ("price": Int, "mileage": Int);
            (40_000, 15_000), (35_000, 30_000), (20_000, 10_000),
            (15_000, 35_000), (15_000, 30_000),
        };
        let p = lowest("price").pareto(lowest("mileage"));
        assert_eq!(
            sigma_decomposed(&p, &r).unwrap(),
            sigma_naive_generic(&p, &r).unwrap()
        );
        assert_eq!(sigma_decomposed(&p, &r).unwrap(), vec![2, 4]);
    }

    #[test]
    fn prop12_components_on_example7() {
        let r = rel! {
            ("price": Int, "mileage": Int);
            (40_000, 15_000), (35_000, 30_000), (20_000, 10_000),
            (15_000, 35_000), (15_000, 30_000),
        };
        let d = Engine::new()
            .pareto_decomposition(&lowest("price"), &lowest("mileage"), &r)
            .unwrap();
        // P1&P2 chain: val5 is its maximum; P2&P1 chain: val3.
        assert_eq!(d.first, vec![4]);
        assert_eq!(d.second, vec![2]);
        assert!(d.overlap_yy.is_empty());
        assert_eq!(d.combined(), vec![2, 4]);
    }

    #[test]
    fn prop12_rejects_shared_attributes() {
        let r = rel! { ("a": Int); (1,) };
        assert!(matches!(
            Engine::new().pareto_decomposition(&lowest("a"), &highest("a"), &r),
            Err(QueryError::AlgorithmMismatch { .. })
        ));
    }

    #[test]
    fn example10_prioritized_via_grouping() {
        // σ[P1&P2](Cars) with P1 = Make↔, P2 = AROUND(Price, 40000).
        let r = rel! {
            ("make": Str, "price": Int, "oid": Int);
            ("Audi", 40_000, 1), ("BMW", 35_000, 2),
            ("VW", 20_000, 3), ("BMW", 50_000, 4),
        };
        let q = antichain(["make"]).prior(around("price", 40_000));
        let got = sigma_decomposed(&q, &r).unwrap();
        assert_eq!(got, sigma_naive_generic(&q, &r).unwrap());
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn cascade_applies_for_chain_head() {
        let r = rel! {
            ("a": Int, "b": Int);
            (1, 9), (1, 2), (5, 0), (1, 2),
        };
        let p = lowest("a").prior(lowest("b"));
        assert!(p.is_chain());
        assert_eq!(
            sigma_decomposed(&p, &r).unwrap(),
            sigma_naive_generic(&p, &r).unwrap()
        );
        assert_eq!(sigma_decomposed(&p, &r).unwrap(), vec![1, 3]);
    }

    #[test]
    fn decomposition_matches_naive_on_varied_terms() {
        let r = rel! {
            ("a": Int, "b": Int, "c": Str);
            (1, 9, "x"), (2, 8, "y"), (3, 7, "x"), (9, 1, "z"),
            (5, 5, "x"), (6, 6, "y"), (1, 9, "x"), (0, 10, "z"),
        };
        for p in [
            lowest("a").pareto(lowest("b")),
            pos("c", ["x"]).pareto(lowest("a")).pareto(highest("b")),
            neg("c", ["z"]).prior(lowest("a")),
            pos("c", ["x"]).prior(lowest("a")).prior(highest("b")),
            around("a", 3).pareto(pos("c", ["y"])),
            lowest("a").intersect(highest("a")).unwrap(),
        ] {
            assert_eq!(
                sigma_decomposed(&p, &r).unwrap(),
                sigma_naive_generic(&p, &r).unwrap(),
                "decomposition diverged for {p}"
            );
        }
    }

    #[test]
    fn decomposition_through_a_shared_engine_reuses_matrices() {
        let engine = Engine::new();
        let r = rel! {
            ("make": Str, "price": Int, "oid": Int);
            ("Audi", 40_000, 1), ("BMW", 35_000, 2),
            ("VW", 20_000, 3), ("BMW", 50_000, 4),
        };
        let q = antichain(["make"]).prior(around("price", 40_000));
        let first = engine.sigma_decomposed(&q, &r).unwrap();
        let stats1 = engine.cache_stats();
        assert!(stats1.misses > 0, "recursion must have built matrices");
        let second = engine.sigma_decomposed(&q, &r).unwrap();
        let stats2 = engine.cache_stats();
        assert_eq!(first, second);
        assert_eq!(
            stats2.misses, stats1.misses,
            "second decomposition must not rebuild any sub-query matrix"
        );
        assert!(stats2.hits > stats1.hits);
    }

    #[test]
    fn cascade_subrelations_are_derived_views_and_hit_across_calls() {
        let engine = Engine::new();
        let r = rel! {
            ("a": Int, "b": Int, "c": Str);
            (1, 9, "x"), (1, 2, "y"), (5, 0, "x"), (1, 2, "z"),
        };
        // Chain head → Prop. 11: the tail runs on a σ[P1](R) derived view.
        let p = lowest("a").prior(pos("c", ["x"]).pareto(neg("c", ["z"])));
        let first = engine.sigma_decomposed(&p, &r).unwrap();
        assert_eq!(first, sigma_naive_generic(&p, &r).unwrap());
        let stats1 = engine.cache_stats();
        let second = engine.sigma_decomposed(&p, &r).unwrap();
        let stats2 = engine.cache_stats();
        assert_eq!(first, second);
        assert_eq!(stats2.misses, stats1.misses);
        assert!(
            stats2.derived_hits > stats1.derived_hits,
            "the re-derived cascade sub-relation must resolve via lineage"
        );
    }

    #[test]
    fn shared_attribute_pareto_still_correct() {
        // Decomposition routes shared-attribute ⊗ through Prop. 5; the
        // prioritised views then fall back to direct evaluation.
        let r = rel! { ("color": Str); ("red",), ("green",), ("yellow",), ("black",) };
        let p = pos("color", ["green", "yellow"]).pareto(neg("color", ["red", "green"]));
        assert_eq!(
            sigma_decomposed(&p, &r).unwrap(),
            sigma_naive_generic(&p, &r).unwrap()
        );
    }
}
