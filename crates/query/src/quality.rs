//! Quality functions and the ranked query model.
//!
//! * `LEVEL` and `DISTANCE` — the quality functions of Preference SQL
//!   (§6.1), used by the `BUT ONLY` clause "to supervise required quality
//!   levels" ([`QualityFilter::filter_rows_with`]);
//! * perfect-match detection (Def. 14b);
//! * [`Engine::k_best`] / [`Engine::top_k`] — the "k-best" relaxation
//!   of BMO used by multi-feature and full-text engines (§6.2), which
//!   deliberately returns some non-maximal tuples when the
//!   best-matches-only set is too small.

use pref_core::base::BaseRef;
use pref_core::graph::BetterGraph;
use pref_core::term::Pref;
use pref_relation::{Attr, Relation, Tuple};

use crate::engine::Engine;
use crate::error::QueryError;

/// A conjunction of quality constraints (the `BUT ONLY` clause).
#[derive(Debug, Clone, Default)]
pub struct QualityFilter {
    conds: Vec<QualityCond>,
}

/// One quality constraint.
#[derive(Debug, Clone)]
pub enum QualityCond {
    /// `LEVEL(attr) <= n`: the discrete level of the attribute's base
    /// preference must not exceed `n`.
    LevelLe(Attr, u32),
    /// `DISTANCE(attr) <= x`: the AROUND/BETWEEN distance must not
    /// exceed `x`.
    DistanceLe(Attr, f64),
}

impl QualityFilter {
    /// An empty (always-true) filter.
    pub fn new() -> Self {
        QualityFilter::default()
    }

    /// Add a constraint.
    pub fn and(mut self, cond: QualityCond) -> Self {
        self.conds.push(cond);
        self
    }

    /// Is the filter trivial?
    pub fn is_empty(&self) -> bool {
        self.conds.is_empty()
    }

    /// The constraints.
    pub fn conds(&self) -> &[QualityCond] {
        &self.conds
    }

    /// Apply the filter to a set of row indices (a BMO result) through an
    /// [`Engine`]. The quality functions resolve against the *first* base
    /// preference on the named attribute (Preference SQL semantics), once
    /// per constraint rather than per tuple. When the engine holds (or
    /// can build) a materialized matrix for `pref` over `r` — which the
    /// preceding BMO stage normally just paid for, possibly a
    /// [`MatrixWindow`](pref_core::eval::MatrixWindow) when `r` is a
    /// row-id view — each LEVEL/DISTANCE check becomes a key read plus
    /// the base preference's exact key inverse
    /// ([`level_from_key`](pref_core::base::BasePreference::level_from_key) /
    /// [`distance_from_key`](pref_core::base::BasePreference::distance_from_key)),
    /// with the per-value walk as fallback for backends without one.
    pub fn filter_rows_with(
        &self,
        engine: &Engine,
        pref: &Pref,
        r: &Relation,
        rows: &[usize],
    ) -> Result<Vec<usize>, QueryError> {
        if self.conds.is_empty() {
            return Ok(rows.to_vec());
        }
        let matrix = engine.matrix_for(pref, r)?;
        let matrix = matrix.as_ref();
        // Resolve each constraint once: base preference, column, bound,
        // and — when the matrix materialized this base — its key slot.
        // Resolution failures are *recorded*, not raised: an
        // unsatisfiable constraint only errors when some row actually
        // reaches it (a row rejected by an earlier condition never
        // evaluates it, and an empty row set evaluates nothing).
        struct Resolved<'a> {
            attr: &'a Attr,
            quality: &'static str,
            base: Option<&'a BaseRef>,
            col: Option<usize>,
            slot: Option<usize>,
            bound: Bound,
        }
        enum Bound {
            Level(u32),
            Distance(f64),
        }
        let mut resolved = Vec::with_capacity(self.conds.len());
        for cond in &self.conds {
            let (attr, quality, bound) = match cond {
                QualityCond::LevelLe(a, b) => (a, "LEVEL", Bound::Level(*b)),
                QualityCond::DistanceLe(a, b) => (a, "DISTANCE", Bound::Distance(*b)),
            };
            let base = base_on(pref, attr).map(|b| &b.base);
            let col = r.schema().index_of(attr);
            resolved.push(Resolved {
                attr,
                quality,
                base,
                col,
                slot: base
                    .zip(col)
                    .and_then(|(b, c)| matrix.and_then(|m| m.base_key_slot(c, b))),
                bound,
            });
        }

        let mut out = Vec::with_capacity(rows.len());
        'rows: for &i in rows {
            for c in &resolved {
                // Deferred resolution errors: missing base preference
                // first, unknown column second.
                let base = c.base.ok_or_else(|| QueryError::NoQualityFunction {
                    attr: c.attr.to_string(),
                    quality: c.quality,
                })?;
                let col = match c.col {
                    Some(col) => col,
                    None => r.schema().require(c.attr)?,
                };
                match c.bound {
                    Bound::Level(bound) => {
                        let lv = c
                            .slot
                            .and_then(|s| {
                                base.level_from_key(
                                    matrix.expect("slot implies matrix").key_at(i, s),
                                )
                            })
                            .or_else(|| base.level(&r.row(i)[col]))
                            .ok_or_else(|| QueryError::NoQualityFunction {
                                attr: c.attr.to_string(),
                                quality: "LEVEL",
                            })?;
                        if lv > bound {
                            continue 'rows;
                        }
                    }
                    Bound::Distance(bound) => {
                        let d = c
                            .slot
                            .and_then(|s| {
                                base.distance_from_key(
                                    matrix.expect("slot implies matrix").key_at(i, s),
                                )
                            })
                            .or_else(|| base.distance(&r.row(i)[col]))
                            .ok_or_else(|| QueryError::NoQualityFunction {
                                attr: c.attr.to_string(),
                                quality: "DISTANCE",
                            })?;
                        if d > bound {
                            continue 'rows;
                        }
                    }
                }
            }
            out.push(i);
        }
        Ok(out)
    }
}

fn base_on<'a>(pref: &'a Pref, attr: &Attr) -> Option<&'a pref_core::term::BasePref> {
    pref.bases().into_iter().find(|b| &b.attr == attr)
}

/// Perfect-match test (Def. 14b): is `t[A] ∈ max(P)` over the whole
/// domain? `None` when the constructors cannot decide (e.g. raw SCORE).
///
/// Sound by induction: a tuple componentwise-maximal is maximal under
/// `⊗`, `&`, `+`; for `♦` one maximal side suffices.
pub fn perfect_match(pref: &Pref, r: &Relation, t: &Tuple) -> Result<Option<bool>, QueryError> {
    Ok(match pref {
        Pref::Base(b) => {
            let col = r.schema().require(&b.attr)?;
            b.base.is_top(&t[col])
        }
        Pref::Antichain(_) => Some(true),
        Pref::Dual(_) => None, // would need an `is_bottom` notion
        Pref::Pareto(children) | Pref::Prior(children) => all_tops(children.iter(), r, t)?,
        Pref::Rank(_, _) => None, // depends on F's extrema
        Pref::Inter(l, rt) => match (perfect_match(l, r, t)?, perfect_match(rt, r, t)?) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            // both certainly non-maximal: still possibly maximal in ♦
            // (the YY phenomenon) — unknown.
            _ => None,
        },
        Pref::Union(l, rt) => match (perfect_match(l, r, t)?, perfect_match(rt, r, t)?) {
            (Some(a), Some(b)) => Some(a && b),
            (Some(false), _) | (_, Some(false)) => Some(false),
            _ => None,
        },
    })
}

fn all_tops<'a>(
    children: impl Iterator<Item = &'a Pref>,
    r: &Relation,
    t: &Tuple,
) -> Result<Option<bool>, QueryError> {
    let mut all = Some(true);
    for c in children {
        match perfect_match(c, r, t)? {
            Some(true) => {}
            Some(false) => return Ok(Some(false)),
            None => all = None,
        }
    }
    Ok(all)
}

impl Engine {
    /// The "k-best" query model by quality level: all of `σ[P](R)`
    /// (level 1), then level 2, and so on until `k` rows are collected —
    /// "in BMO-terms this amounts to retrieve some non-maximal objects,
    /// too" (§6.2). Works for *any* preference, not just scored ones;
    /// ties within the cutting level break by row order.
    ///
    /// The O(n²) better-than graph is built from the engine-cached
    /// [`ScoreMatrix`](pref_core::eval::ScoreMatrix) when the term
    /// materializes (numeric key comparisons instead of per-pair term
    /// walks), with the compiled-term walk as fallback.
    pub fn k_best(&self, pref: &Pref, r: &Relation, k: usize) -> Result<Vec<usize>, QueryError> {
        let q = self.prepare(pref, r.schema())?;
        let g = match q.matrix(r) {
            Some(m) => BetterGraph::from_fn(r.len(), |x, y| m.better(x, y)),
            None => BetterGraph::from_relation(q.compiled(), r),
        }
        .map_err(|_| QueryError::AlgorithmMismatch {
            algorithm: "k-best",
            term: pref.to_string(),
            reason: "preference violates the strict-partial-order axioms",
        })?;
        let mut idx: Vec<usize> = (0..r.len()).collect();
        idx.sort_by_key(|&i| (g.level(i), i));
        idx.truncate(k);
        Ok(idx)
    }

    /// The "k-best" ranked query model (§6.2): order by the preference's
    /// monotone utility, return the top `k` row indices (best first).
    /// For a chain-valued `rank(F)` this returns the k best matches;
    /// BMO-maximal tuples always precede non-maximal ones. The utility
    /// scan needs no matrix — it is a single O(n) pass, not a pairwise
    /// loop.
    pub fn top_k(&self, pref: &Pref, r: &Relation, k: usize) -> Result<Vec<usize>, QueryError> {
        let q = self.prepare(pref, r.schema())?;
        let mut scored: Vec<(f64, usize)> = Vec::with_capacity(r.len());
        for i in 0..r.len() {
            let u =
                q.compiled()
                    .utility(r.row(i))
                    .ok_or_else(|| QueryError::AlgorithmMismatch {
                        algorithm: "top-k",
                        term: pref.to_string(),
                        reason: "preference admits no monotone utility",
                    })?;
            scored.push((u, i));
        }
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        Ok(scored.into_iter().take(k).map(|(_, i)| i).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_core::prelude::*;
    use pref_relation::{attr, rel};

    #[test]
    fn level_and_distance_lookup() {
        let r = rel! { ("color": Str, "price": Int); ("gray", 42_000) };
        let p = pos_neg("color", ["yellow"], ["gray"])
            .unwrap()
            .pareto(around("price", 40_000));
        // Off the matrix keys and off the per-value walk alike.
        for engine in [Engine::new(), term_walk()] {
            let kept = |cond| {
                QualityFilter::new()
                    .and(cond)
                    .filter_rows_with(&engine, &p, &r, &[0])
            };
            let (color, price) = (attr("color"), attr("price"));
            // LEVEL(color) = 3 and DISTANCE(price) = 2000, exactly.
            assert_eq!(kept(QualityCond::LevelLe(color.clone(), 3)).unwrap(), [0]);
            assert!(kept(QualityCond::LevelLe(color, 2)).unwrap().is_empty());
            let at = kept(QualityCond::DistanceLe(price.clone(), 2_000.0));
            assert_eq!(at.unwrap(), [0]);
            let below = kept(QualityCond::DistanceLe(price.clone(), 1_999.0));
            assert!(below.unwrap().is_empty());
            // LEVEL on a continuous preference is undefined.
            assert!(kept(QualityCond::LevelLe(price, 99)).is_err());
            // Quality functions need a constraining base preference.
            assert!(kept(QualityCond::DistanceLe(attr("missing"), 1.0)).is_err());
        }
    }

    #[test]
    fn but_only_filter() {
        // The paper's trips query: BUT ONLY DISTANCE(start)<=2 AND
        // DISTANCE(duration)<=2.
        let r = rel! {
            ("start": Int, "duration": Int);
            (10, 14), (13, 14), (10, 20), (11, 15),
        };
        let p = around("start", 10).pareto(around("duration", 14));
        let f = QualityFilter::new()
            .and(QualityCond::DistanceLe(attr("start"), 2.0))
            .and(QualityCond::DistanceLe(attr("duration"), 2.0));
        let all: Vec<usize> = (0..r.len()).collect();
        let kept = f.filter_rows_with(&Engine::new(), &p, &r, &all).unwrap();
        assert_eq!(kept, vec![0, 3]);
    }

    #[test]
    fn filter_errors_stay_lazy_like_accepts() {
        // An unsatisfiable constraint only errors when a row actually
        // reaches it, as if each row were accepted one at a time.
        let r = rel! { ("a": Int); (5,) };
        let p = around("a", 0);
        let bad = QualityFilter::new().and(QualityCond::LevelLe(attr("missing"), 1));
        // A row rejected by an earlier condition never evaluates the
        // invalid one (distance of 5 > 1 rejects first).
        let short_circuit = QualityFilter::new()
            .and(QualityCond::DistanceLe(attr("a"), 1.0))
            .and(QualityCond::LevelLe(attr("missing"), 1));
        for engine in [Engine::new(), term_walk()] {
            // Empty row set: nothing is evaluated, nothing errors.
            assert!(bad
                .filter_rows_with(&engine, &p, &r, &[])
                .unwrap()
                .is_empty());
            // A row that reaches the constraint surfaces the error.
            assert!(bad.filter_rows_with(&engine, &p, &r, &[0]).is_err());
            let kept = short_circuit.filter_rows_with(&engine, &p, &r, &[0]);
            assert!(kept.unwrap().is_empty());
        }
    }

    #[test]
    fn engine_backed_filter_reads_the_cached_matrix() {
        let r = rel! {
            ("color": Str, "start": Int, "duration": Int);
            ("red", 10, 14), ("gray", 13, 14), ("red", 10, 20), ("blue", 11, 15),
        };
        let p = pos_neg("color", ["red"], ["gray"])
            .unwrap()
            .pareto(around("start", 10))
            .pareto(around("duration", 14));
        let f = QualityFilter::new()
            .and(QualityCond::LevelLe(attr("color"), 2))
            .and(QualityCond::DistanceLe(attr("start"), 2.0))
            .and(QualityCond::DistanceLe(attr("duration"), 2.0));
        let all: Vec<usize> = (0..r.len()).collect();

        let engine = Engine::new();
        // The term materializes: the filter must run off matrix keys and
        // agree with the per-value walk.
        let m = engine.matrix_for(&p, &r).unwrap().expect("materializes");
        let col = r.schema().require(&attr("start")).unwrap();
        let base = &base_on(&p, &attr("start")).unwrap().base;
        let slot = m.base_key_slot(col, base).expect("AROUND slot recorded");
        assert_eq!(base.distance_from_key(m.key_at(1, slot)), Some(3.0));

        let via_engine = f.filter_rows_with(&engine, &p, &r, &all).unwrap();
        let via_walk = f.filter_rows_with(&term_walk(), &p, &r, &all).unwrap();
        assert_eq!(via_engine, via_walk);
        // Row 1 fails twice (NEG'd color, start 3 off), row 2's duration
        // is 6 off; rows 0 and 3 satisfy every bound.
        assert_eq!(via_engine, vec![0, 3]);
        assert!(
            engine.cache_stats().hits >= 1 || engine.cache_stats().misses == 1,
            "the filter shares the engine matrix, not a private rebuild"
        );

        // Error semantics survive the fast path: LEVEL on a continuous
        // preference is still undefined.
        let bad = QualityFilter::new().and(QualityCond::LevelLe(attr("start"), 1));
        assert!(bad.filter_rows_with(&engine, &p, &r, &all).is_err());
        assert!(bad.filter_rows_with(&term_walk(), &p, &r, &all).is_err());
    }

    /// The term-walk reference: the same operators with the score-matrix
    /// backend switched off.
    fn term_walk() -> Engine {
        Engine::with_optimizer(crate::Optimizer::new().without_materialization())
    }

    #[test]
    fn k_best_with_engine_agrees_and_reuses_matrices() {
        let r = rel! { ("a": Int, "b": Int); (1, 9), (2, 8), (9, 1), (5, 5) };
        let p = around("a", 1).pareto(lowest("b"));
        let engine = Engine::new();
        for k in 0..=r.len() {
            assert_eq!(
                engine.k_best(&p, &r, k).unwrap(),
                term_walk().k_best(&p, &r, k).unwrap()
            );
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "one matrix serves every k");
        assert!(stats.hits >= 1);
    }

    #[test]
    fn engine_operators_agree_with_their_term_walk_references() {
        let r = rel! { ("a": Int, "b": Int); (1, 9), (2, 8), (9, 1), (5, 5) };
        let p = around("a", 1).pareto(lowest("b"));
        let engine = Engine::new();
        assert_eq!(
            engine.k_best(&p, &r, 3).unwrap(),
            term_walk().k_best(&p, &r, 3).unwrap()
        );
        let ranked = Pref::rank(CombineFn::sum(), vec![highest("a"), highest("b")]).unwrap();
        assert_eq!(
            engine.top_k(&ranked, &r, 3).unwrap(),
            term_walk().top_k(&ranked, &r, 3).unwrap()
        );
        assert_eq!(
            engine.sigma_decomposed(&p, &r).unwrap(),
            crate::bmo::sigma_naive_generic(&p, &r).unwrap()
        );
    }

    #[test]
    fn example8_perfect_match() {
        // "Note that red is a perfect match."
        let r = rel! { ("color": Str); ("yellow",), ("red",), ("green",), ("black",) };
        let p = explicit(
            "color",
            [("green", "yellow"), ("green", "red"), ("yellow", "white")],
        )
        .unwrap();
        assert_eq!(perfect_match(&p, &r, r.row(1)).unwrap(), Some(true)); // red
        assert_eq!(perfect_match(&p, &r, r.row(0)).unwrap(), Some(false)); // yellow (level 2)
        assert_eq!(perfect_match(&p, &r, r.row(3)).unwrap(), Some(false)); // black
    }

    #[test]
    fn perfect_match_composes() {
        let r = rel! { ("color": Str, "hp": Int); ("yellow", 100), ("yellow", 90) };
        let p = pos("color", ["yellow"]).pareto(around("hp", 100));
        assert_eq!(perfect_match(&p, &r, r.row(0)).unwrap(), Some(true));
        assert_eq!(perfect_match(&p, &r, r.row(1)).unwrap(), Some(false));
        // HIGHEST has no dream value on an unbounded domain.
        let q = pos("color", ["yellow"]).pareto(highest("hp"));
        assert_eq!(perfect_match(&q, &r, r.row(0)).unwrap(), Some(false));
    }

    #[test]
    fn k_best_walks_down_the_levels() {
        let r = rel! { ("a": Int); (3,), (1,), (2,), (1,) };
        let p = lowest("a");
        let engine = Engine::new();
        // Levels: the two 1s, then 2, then 3.
        assert_eq!(engine.k_best(&p, &r, 1).unwrap(), vec![1]);
        assert_eq!(engine.k_best(&p, &r, 2).unwrap(), vec![1, 3]);
        assert_eq!(engine.k_best(&p, &r, 3).unwrap(), vec![1, 3, 2]);
        assert_eq!(engine.k_best(&p, &r, 99).unwrap().len(), 4);
        // Works for non-scored preferences too (unlike utility top_k).
        let q = pos("a", [2i64]);
        assert_eq!(engine.k_best(&q, &r, 1).unwrap(), vec![2]);
    }

    #[test]
    fn k_best_prefix_is_bmo() {
        let r = rel! { ("a": Int, "b": Int); (1, 9), (2, 8), (9, 1), (5, 5) };
        let p = lowest("a").pareto(lowest("b"));
        let bmo = crate::bmo::sigma_naive_generic(&p, &r).unwrap();
        let kb = Engine::new().k_best(&p, &r, r.len()).unwrap();
        assert_eq!(
            {
                let mut head: Vec<usize> = kb[..bmo.len()].to_vec();
                head.sort_unstable();
                head
            },
            bmo
        );
    }

    #[test]
    fn top_k_relaxes_bmo() {
        // rank(F) "would return exactly one best-matching object ... For
        // more alternative choices, the k-best query model is applied".
        let r = rel! { ("a": Int, "b": Int); (1, 1), (2, 2), (3, 3), (4, 4) };
        let p = Pref::rank(CombineFn::sum(), vec![highest("a"), highest("b")]).unwrap();
        let engine = Engine::new();
        assert_eq!(engine.top_k(&p, &r, 1).unwrap(), vec![3]);
        assert_eq!(engine.top_k(&p, &r, 3).unwrap(), vec![3, 2, 1]);
        assert_eq!(engine.top_k(&p, &r, 99).unwrap().len(), 4);
        // Non-scorable terms are rejected.
        assert!(engine.top_k(&pos("a", [1i64]), &r, 1).is_err());
    }
}
