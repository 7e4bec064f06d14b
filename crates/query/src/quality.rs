//! Quality functions and the ranked query model.
//!
//! * `LEVEL` and `DISTANCE` — the quality functions of Preference SQL
//!   (§6.1), used by the `BUT ONLY` clause "to supervise required quality
//!   levels" ([`QualityFilter::filter_rows`]). They are functions of
//!   attribute values, so the filter reads each surviving row's value
//!   and never the BMO stage's score matrix;
//! * perfect-match detection (Def. 14b);
//! * [`Prepared::layers`] — Def. 2's levels of a relation, peeled as
//!   iterated winnow: one plan and one score matrix per peel, every
//!   layer the query's evaluation step over a window of that matrix onto
//!   the rows not yet peeled;
//! * [`Prepared::k_best`] / [`Prepared::top_k`] — the "k-best"
//!   relaxation of BMO used by multi-feature and full-text engines
//!   (§6.2), which deliberately returns some non-maximal tuples when the
//!   best-matches-only set is too small.

use pref_core::term::Pref;
use pref_relation::{Attr, Relation, Tuple};

use crate::engine::Prepared;
use crate::error::QueryError;
use crate::optimizer::Explain;

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

    /// Apply the filter to a set of row indices (a BMO result) of `r`.
    /// The quality functions resolve against the *first* base preference
    /// of `pref` on the named attribute (Preference SQL semantics), once
    /// per constraint rather than per tuple, and read each row's value.
    ///
    /// Resolution failures are *recorded*, not raised: an unsatisfiable
    /// constraint only errors when some row actually reaches it (a row
    /// rejected by an earlier condition never evaluates it, and an empty
    /// row set evaluates nothing) — a missing base preference first, an
    /// unknown column second.
    pub fn filter_rows(
        &self,
        pref: &Pref,
        r: &Relation,
        rows: &[usize],
    ) -> Result<Vec<usize>, QueryError> {
        let resolved: Vec<_> = (self.conds.iter())
            .map(|cond| {
                let attr = match cond {
                    QualityCond::LevelLe(a, _) | QualityCond::DistanceLe(a, _) => a,
                };
                let base = pref.bases().into_iter().find(|b| &b.attr == attr);
                (cond, attr, base.map(|b| &b.base), r.schema().index_of(attr))
            })
            .collect();
        let mut out = Vec::with_capacity(rows.len());
        'rows: for &i in rows {
            for &(cond, attr, base, col) in &resolved {
                let quality = match cond {
                    QualityCond::LevelLe(..) => "LEVEL",
                    QualityCond::DistanceLe(..) => "DISTANCE",
                };
                let undefined = || QueryError::NoQualityFunction {
                    attr: attr.to_string(),
                    quality,
                };
                let base = base.ok_or_else(undefined)?;
                let col = match col {
                    Some(col) => col,
                    None => r.schema().require(attr)?,
                };
                let v = &r.row(i)[col];
                let within = match *cond {
                    QualityCond::LevelLe(_, bound) => base.level(v).ok_or_else(undefined)? <= bound,
                    QualityCond::DistanceLe(_, bound) => {
                        base.distance(v).ok_or_else(undefined)? <= bound
                    }
                };
                if !within {
                    continue 'rows;
                }
            }
            out.push(i);
        }
        Ok(out)
    }
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

impl Prepared {
    /// Def. 2's levels of `r`, best first, as ascending row indices: on
    /// a strict partial order, peeling the maxima again and again gives
    /// the longest-path levels (Chomicki's iterated winnow). The peel
    /// plans once on `r` and resolves one matrix once, through the tiers
    /// a first [`Prepared::execute`] over `r` walks; each layer is this
    /// query's evaluation step over the rows left — a window of that
    /// matrix onto them, and a [`Relation::take_rows`] view for the
    /// algorithms that read rows. No layer is cached: the peel adds at
    /// most the one matrix and no result. The first layer always runs;
    /// peeling stops at an empty layer or once `until(&layers)` holds.
    /// The report is the first layer's.
    pub fn layers(
        &self,
        r: &Relation,
        mut until: impl FnMut(&[Vec<usize>]) -> bool,
    ) -> Result<(Vec<Vec<usize>>, Explain), QueryError> {
        self.check_schema(r)?;
        let (matrix, cache) = self.tiered_matrix(r);
        let (mut layer, algorithm, reason) = self.evaluate(matrix.as_ref(), r)?;
        let mut rest: Vec<usize> = (0..r.len()).collect();
        let mut layers = Vec::new();
        while !layer.is_empty() {
            rest.retain(|i| layer.binary_search(i).is_err());
            layers.push(layer);
            if until(&layers) || rest.is_empty() {
                break;
            }
            let window = matrix.as_ref().map(|m| m.restrict(&rest));
            let (rows, ..) = self.evaluate(window.as_ref(), &r.take_rows(&rest))?;
            layer = rows.iter().map(|&v| rest[v]).collect();
        }
        let report = self.report(r, algorithm, matrix.is_some(), cache, reason);
        Ok((layers, report))
    }

    /// The "k-best" query model by quality level (§6.2): the levels of
    /// [`Prepared::layers`], each in row order, until `k` rows — "in
    /// BMO-terms this amounts to retrieve some non-maximal objects, too".
    /// Works for *any* preference; the report is the first layer's.
    pub fn k_best(&self, r: &Relation, k: usize) -> Result<(Vec<usize>, Explain), QueryError> {
        let mut taken = 0;
        let (layers, mut report) = self.layers(r, |layers| {
            taken += layers.last().map_or(0, Vec::len);
            taken >= k
        })?;
        report.reason = format!("k-best relaxation to {k} rows (§6.2)");
        let mut rows = layers.concat();
        rows.truncate(k);
        Ok((rows, report))
    }

    /// The "k-best" ranked query model (§6.2): order by the preference's
    /// monotone utility, return the top `k` row indices (best first).
    /// For a chain-valued `rank(F)` this returns the k best matches;
    /// BMO-maximal tuples always precede non-maximal ones. The utility
    /// scan needs no matrix — it is a single O(n) pass, not a pairwise
    /// loop.
    pub fn top_k(&self, r: &Relation, k: usize) -> Result<Vec<usize>, QueryError> {
        self.check_schema(r)?;
        let mut scored: Vec<(f64, usize)> = Vec::with_capacity(r.len());
        for i in 0..r.len() {
            let u = (self.compiled().utility(r.row(i))).ok_or_else(|| {
                QueryError::AlgorithmMismatch {
                    algorithm: "top-k",
                    term: self.original.clone(),
                    reason: "preference admits no monotone utility",
                }
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
    use crate::engine::Engine;
    use crate::optimizer::CacheStatus;
    use pref_core::prelude::*;
    use pref_relation::{attr, rel, Value};

    #[test]
    fn level_and_distance_lookup() {
        let r = rel! { ("color": Str, "price": Int); ("gray", 42_000) };
        let p = pos_neg("color", ["yellow"], ["gray"])
            .unwrap()
            .pareto(around("price", 40_000));
        let kept = |cond| QualityFilter::new().and(cond).filter_rows(&p, &r, &[0]);
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
        let kept = f.filter_rows(&p, &r, &all).unwrap();
        assert_eq!(kept, vec![0, 3]);
    }

    #[test]
    fn filter_errors_stay_lazy_like_accepts() {
        // An unsatisfiable constraint only errors when a row actually
        // reaches it, as if each row were accepted one at a time.
        let r = rel! { ("a": Int); (5,) };
        let p = around("a", 0);
        let bad = QualityFilter::new().and(QualityCond::LevelLe(attr("missing"), 1));
        // Empty row set: nothing is evaluated, nothing errors.
        assert!(bad.filter_rows(&p, &r, &[]).unwrap().is_empty());
        // A row that reaches the constraint surfaces the error.
        assert!(bad.filter_rows(&p, &r, &[0]).is_err());
        // A row rejected by an earlier condition never evaluates the
        // invalid one (distance of 5 > 1 rejects first).
        let short_circuit = QualityFilter::new()
            .and(QualityCond::DistanceLe(attr("a"), 1.0))
            .and(QualityCond::LevelLe(attr("missing"), 1));
        let kept = short_circuit.filter_rows(&p, &r, &[0]);
        assert!(kept.unwrap().is_empty());
    }

    #[test]
    fn filter_reads_the_values_of_result_rows() {
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
        // Row 1 fails twice (NEG'd color, start 3 off), row 2's duration
        // is 6 off; rows 0 and 3 satisfy every bound.
        assert_eq!(f.filter_rows(&p, &r, &all).unwrap(), vec![0, 3]);
        // The same rows through a row-id view: the filter reads the
        // view's rows, not the base's.
        let view = r.take_rows(&[3, 1, 0]);
        assert_eq!(f.filter_rows(&p, &view, &[0, 1, 2]).unwrap(), vec![0, 2]);

        // LEVEL on a continuous preference is undefined, and a missing
        // base preference reports before an unknown column.
        let bad = QualityFilter::new().and(QualityCond::LevelLe(attr("start"), 1));
        assert!(matches!(
            bad.filter_rows(&p, &r, &all),
            Err(QueryError::NoQualityFunction {
                quality: "LEVEL",
                ..
            })
        ));
        let unknown = QualityFilter::new().and(QualityCond::DistanceLe(attr("nope"), 1.0));
        assert!(matches!(
            unknown.filter_rows(&around("nope", 0), &r, &all),
            Err(QueryError::Relation(_))
        ));
        assert!(matches!(
            unknown.filter_rows(&p, &r, &all),
            Err(QueryError::NoQualityFunction { .. })
        ));
    }

    /// The term-walk reference: the same operators with the score-matrix
    /// backend switched off.
    fn term_walk() -> Engine {
        Engine::with_optimizer(crate::Optimizer::new().without_materialization())
    }

    /// `engine`'s prepared query of `p` over `r`.
    fn prepared(engine: &Engine, p: &Pref, r: &Relation) -> Prepared {
        engine.prepare(p, r.schema()).unwrap()
    }

    #[test]
    fn k_best_with_engine_agrees_and_reuses_matrices() {
        let r = rel! { ("a": Int, "b": Int); (1, 9), (2, 8), (9, 1), (5, 5) };
        let p = around("a", 1).pareto(lowest("b"));
        let engine = Engine::new();
        let (q, walk) = (prepared(&engine, &p, &r), prepared(&term_walk(), &p, &r));
        for k in 0..=r.len() {
            assert_eq!(q.k_best(&r, k).unwrap().0, walk.k_best(&r, k).unwrap().0);
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
            prepared(&engine, &p, &r).k_best(&r, 3).unwrap().0,
            prepared(&term_walk(), &p, &r).k_best(&r, 3).unwrap().0
        );
        let ranked = Pref::rank(CombineFn::sum(), vec![highest("a"), highest("b")]).unwrap();
        assert_eq!(
            prepared(&engine, &ranked, &r).top_k(&r, 3).unwrap(),
            prepared(&term_walk(), &ranked, &r).top_k(&r, 3).unwrap()
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
        let engine = Engine::new();
        let q = prepared(&engine, &lowest("a"), &r);
        // Levels: the two 1s, then 2, then 3.
        let k_best = |q: &Prepared, k| q.k_best(&r, k).unwrap().0;
        assert_eq!(k_best(&q, 1), vec![1]);
        assert_eq!(k_best(&q, 2), vec![1, 3]);
        assert_eq!(k_best(&q, 3), vec![1, 3, 2]);
        assert_eq!(k_best(&q, 99), vec![1, 3, 2, 0]);
        // Works for non-scored preferences too (unlike utility top_k).
        let q = prepared(&engine, &pos("a", [2i64]), &r);
        assert_eq!(k_best(&q, 1), vec![2]);
        // A relation of another schema is refused, not misread.
        let other = rel! { ("b": Int); (1,) };
        assert!(q.k_best(&other, 1).is_err() && q.top_k(&other, 1).is_err());
    }

    #[test]
    fn k_best_prefix_is_bmo() {
        let r = rel! { ("a": Int, "b": Int); (1, 9), (2, 8), (9, 1), (5, 5) };
        let p = lowest("a").pareto(lowest("b"));
        let bmo = crate::bmo::sigma_naive_generic(&p, &r).unwrap();
        let kb = prepared(&Engine::new(), &p, &r)
            .k_best(&r, r.len())
            .unwrap()
            .0;
        assert_eq!(
            {
                let mut head: Vec<usize> = kb[..bmo.len()].to_vec();
                head.sort_unstable();
                head
            },
            bmo
        );
    }

    /// `(level, row)` order under the better-than graph of `p` over `r`
    /// — Def. 2 by its definition, the oracle the peel is checked against.
    fn graph_order(p: &Pref, r: &Relation) -> Vec<usize> {
        let c = pref_core::eval::CompiledPref::compile(p, r.schema()).unwrap();
        let g = pref_core::graph::BetterGraph::from_relation(&c, r).unwrap();
        let mut rows: Vec<usize> = (0..r.len()).collect();
        rows.sort_by_key(|&i| (g.level(i), i));
        rows
    }

    #[test]
    fn layers_are_the_graph_levels_on_every_kind_of_relation() {
        let mut r = rel! {
            ("a": Int, "b": Int, "c": Str);
            (3, 1, "x"), (1, 9, "y"), (2, 8, "x"), (1, 9, "x"), (9, 1, "y"),
            (5, 5, "x"), (4, 4, "y"), (2, 2, "x"), (7, 3, "y"), (6, 6, "x"),
        };
        let terms = [
            lowest("a"),
            around("a", 4).pareto(lowest("b")),
            pos("c", ["x"]).prior(highest("b")),
            lowest("a").pareto(lowest("b")).pareto(pos("c", ["y"])),
        ];
        let engine = Engine::new();
        let check = |r: &Relation| {
            for p in &terms {
                let q = prepared(&engine, p, r);
                let order = graph_order(p, r);
                for k in 0..=r.len() + 1 {
                    let want = &order[..k.min(r.len())];
                    assert_eq!(q.k_best(r, k).unwrap().0, want, "{p}, k = {k}");
                }
                let (layers, _) = q.layers(r, |_| false).unwrap();
                assert_eq!(layers.concat(), order, "{p}");
                for level in 0..4 {
                    let mut want = layers[..level.min(layers.len())].concat();
                    want.sort_unstable();
                    assert_eq!(q.sigma_levels(r, level as u32).unwrap(), want);
                }
            }
        };
        // A dense table, a windowable view of it, and a table with a
        // tombstone (its views do not window).
        check(&r);
        check(&r.select_derived(|t| t[2] != Value::from("z"), 7));
        r.delete_rows(&[4]);
        check(&r);
    }

    /// A peel of `r` reports the tier two executions on a fresh engine
    /// report, adds at most the one matrix and no result, and builds its
    /// matrix anew on every call when nothing stays resident.
    fn assert_a_peel_takes_the_tier_a_winnow_takes(p: &Pref, name: &str, r: &Relation) {
        let winnow = prepared(&Engine::new(), p, r);
        let execute = || winnow.execute(r).unwrap().cache();
        let (first, repeat) = (execute(), execute());
        assert!(repeat.is_warm(), "{name}");
        let engine = Engine::new();
        let q = prepared(&engine, p, r);
        let order = graph_order(p, r);
        let (rows, report) = q.k_best(r, 5).unwrap();
        assert_eq!((rows, report.cache), (order[..5].to_vec(), first), "{name}");
        assert_eq!(report.generation, r.generation(), "{name}");
        for k in [0, 1, 5, 40, 41] {
            let (rows, report) = q.k_best(r, k).unwrap();
            assert_eq!(rows, order[..k.min(r.len())], "{name}, k = {k}");
            assert_eq!(report.cache, repeat, "{name}, k = {k}");
            let stats = engine.cache_stats();
            assert_eq!((stats.entries, stats.result_entries), (1, 0), "{name}");
        }
        let engine = Engine::new().with_capacity(0);
        let q = prepared(&engine, p, r);
        for calls in 1..=3 {
            assert_eq!(q.k_best(r, 50).unwrap().0, order, "{name}");
            assert_eq!(engine.cache_stats().misses, calls, "{name}");
        }
    }

    #[test]
    fn a_top_statement_adds_one_matrix_and_no_result() {
        let p = around("a", 40).pareto(highest("b"));
        let table = forty_rows();
        let view = table.select_derived(|t| t[0] != Value::from(3), 11);
        assert_a_peel_takes_the_tier_a_winnow_takes(&p, "table", &table);
        assert_a_peel_takes_the_tier_a_winnow_takes(&p, "view", &view);
        // A view over a warmed table windows onto the table's matrix.
        let engine = Engine::new();
        let q = prepared(&engine, &p, &table);
        q.execute(&table).unwrap();
        assert_eq!(q.k_best(&view, 5).unwrap().1.cache, CacheStatus::WindowHit);
        assert_eq!(engine.cache_stats().entries, 1);
    }

    #[test]
    fn a_top_over_a_table_that_cannot_window_leaves_the_matrix_cache_as_it_was() {
        // A tombstone: the peel builds and keeps the table's own matrix.
        let mut r = forty_rows();
        r.delete_rows(&[3, 17]);
        let p = around("a", 40).pareto(highest("b"));
        assert_a_peel_takes_the_tier_a_winnow_takes(&p, "tombstoned", &r);
        // After an execution has warmed that matrix, peels add nothing.
        let engine = Engine::new();
        let q = prepared(&engine, &p, &r);
        q.execute(&r).unwrap();
        let before = engine.cache_stats().entries;
        assert!(before > 0);
        let order = graph_order(&p, &r);
        for run in 0..3 {
            assert_eq!(q.k_best(&r, 5).unwrap().0, order[..5], "run {run}");
            assert_eq!(engine.cache_stats().entries, before, "run {run}");
        }
    }

    /// Forty rows of two key columns with ties.
    fn forty_rows() -> Relation {
        let mut r = rel! { ("a": Int, "b": Int); (0, 0) };
        for i in 1..40i64 {
            r.push_values(vec![Value::from(i * 7 % 13), Value::from(i * 5 % 11)])
                .unwrap();
        }
        r
    }

    #[test]
    fn top_k_relaxes_bmo() {
        // rank(F) "would return exactly one best-matching object ... For
        // more alternative choices, the k-best query model is applied".
        let r = rel! { ("a": Int, "b": Int); (1, 1), (2, 2), (3, 3), (4, 4) };
        let p = Pref::rank(CombineFn::sum(), vec![highest("a"), highest("b")]).unwrap();
        let engine = Engine::new();
        let q = prepared(&engine, &p, &r);
        assert_eq!(q.top_k(&r, 1).unwrap(), vec![3]);
        assert_eq!(q.top_k(&r, 3).unwrap(), vec![3, 2, 1]);
        assert_eq!(q.top_k(&r, 99).unwrap().len(), 4);
        // Non-scorable terms are rejected.
        let unscored = prepared(&engine, &pos("a", [1i64]), &r);
        assert!(unscored.top_k(&r, 1).is_err());
    }
}
