//! Sort-Filter-Skyline: presort by a monotone utility, then filter.
//!
//! When the preference admits a *topologically compatible* utility
//! (`x <P y ⟹ u(x) < u(y)`, see [`CompiledPref::utility`]), sorting by
//! descending utility guarantees no tuple is dominated by a later one.
//! A single pass comparing each tuple against the already-accepted maxima
//! therefore computes the BMO result, and accepted tuples are final —
//! the progressive behaviour of \[TEO01\].
//!
//! On a flat Pareto order over a score matrix the utility is the sum of
//! the dominance keys the matrix already holds, each clamped to
//! `±f64::MAX` so that `+∞ + −∞` cannot make it NaN, and the filter pass
//! asks the early-exit `AcceptedWindow`. The key sum is monotone for
//! *every* such order, whether or not its operands score (POS, NEG,
//! POS/POS and layered bases have keys but no utility): a key lane's `<`
//! is its operand's strict order and equal codes imply equal keys, so a
//! dominator's sum is never below its victim's. Before the presort, the
//! window's linear pre-filter drops the rows its 64 best rows dominate, so
//! only the survivors are sorted.
//!
//! **Prop. 10 head split.** A prioritisation `P1 & P2 …` whose head is one
//! key lane (POS, NEG, POS/POS, POS/NEG, layered, AROUND, BETWEEN,
//! LOWEST, HIGHEST, `rank(F)`) is a weak order by key on `P1`: one linear
//! pass keeps the rows at the best head key present (everything below is
//! dominated there) and buckets them by head code (different codes at one
//! key are incomparable), and the tail runs inside each bucket — through
//! the same key-lane kernel when it is one flat Pareto operand, through a
//! BNL window otherwise. Single-lane heads that follow bucket in turn,
//! lexicographically, and a lone key lane is one head with nothing after
//! it. An anti-chain head `A↔` is the weak order with one key: every row
//! ties, so the pass keeps them all and buckets them by the projection's
//! code — Def. 16's `σ[P groupby A](R) = σ[A↔ & P](R)`, one group per
//! bucket, with no per-group evaluator of its own (a lone `A↔` keeps
//! every row). This subsumes Prop. 11's chain cascade (a chain is a key lane
//! with one value per key) and reads the one cached matrix — no
//! sub-relation, no cache entry. Other shapes walk the term per row (a
//! NaN utility counts as none) and filter pairwise; an `A↔ & P` with
//! neither a matrix nor a utility still buckets by `A`, one BNL window
//! per group (`group_walk`).
//!
//! **Ties.** Float addition is monotone but not strictly: `(1e16, 1.0)`
//! and `(1e16, 0.5)` under `AROUND 0 ⊗ AROUND 0` both sum to `-1e16`,
//! and the dominated row must not be accepted first. Equal utilities
//! are ordered by descending lexicographic keys (a dominator is `≥`
//! everywhere and `>` somewhere, so lexicographically greater), then
//! row index; the pairwise path has no keys and winnows each run of
//! equal utilities as a BNL window of its own.

use pref_core::eval::{CompiledPref, Dominance, ParetoAccess, PriorAccess, PriorTail};
use pref_relation::Relation;

use super::bnl::bnl_window;
use super::window::{prefilter, widened, AcceptedWindow, NO_SPAN};

/// BMO evaluation by sort-filter with the dominance backend chosen by
/// the caller (`matrix` from [`CompiledPref::score_matrix`], or `None`
/// for the generic path). A matrix with key lanes — a flat Pareto order
/// or a single-lane or anti-chain head — always answers. Otherwise `None`
/// when the preference has no monotone utility on *every* row: utility is
/// per-value (e.g. a NULL under a scored chain has none), and a sort
/// order that is not topologically compatible could silently misresult.
pub fn try_sfs_with<M: Dominance>(
    c: &CompiledPref,
    r: &Relation,
    matrix: Option<&M>,
) -> Option<Vec<usize>> {
    if let Some(m) = matrix {
        if let Some(acc) = m.pareto_access() {
            let mut maxima = filter_pass_batch(&acc, acc.len(), |j| j);
            maxima.sort_unstable();
            return Some(maxima);
        }
        if let Some(acc) = m.prior_access() {
            let mut maxima = Vec::new();
            head_split(
                &acc,
                0,
                &mut (0..acc.len()),
                &|x, y| m.better(x, y),
                &mut maxima,
            );
            maxima.sort_unstable();
            return Some(maxima);
        }
    }
    // A NaN utility (`+∞ + −∞`) orders nothing: no utility at all.
    let utility = |i| c.utility(r.row(i)).filter(|u| !u.is_nan());
    let scored = (0..r.len()).map(|i| Some((utility(i)?, i)));
    let mut order: Vec<(f64, usize)> = scored.collect::<Option<_>>()?;
    order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    Some(match matrix {
        Some(m) => filter_pass(&order, |x, y| m.better(x, y)),
        None => filter_pass(&order, |x, y| c.better(r.row(x), r.row(y))),
    })
}

/// The pairwise filter pass. A run of equal utilities may hold a row
/// before its dominator, so each run drops what the accepted maxima
/// dominate, then winnows itself; higher-utility maxima are never evicted.
fn filter_pass(order: &[(f64, usize)], better: impl Fn(usize, usize) -> bool) -> Vec<usize> {
    let mut maxima: Vec<usize> = Vec::new();
    for run in order.chunk_by(|a, b| a.0 == b.0) {
        let undominated = run
            .iter()
            .map(|&(_, i)| i)
            .filter(|&i| !maxima.iter().any(|&m| better(i, m)));
        maxima.extend(bnl_window(&better, Vec::new(), undominated));
    }
    maxima.sort_unstable();
    maxima
}

/// The presort key of a row of dominance keys: their sum, each key
/// clamped to `±f64::MAX` first. Clamping is monotone, and a sum of
/// finite terms is never NaN (`+∞ + −∞` would be).
pub(super) fn key_sum(keys: &[f64]) -> f64 {
    keys.iter()
        .fold(0.0, |sum, k| sum + k.clamp(-f64::MAX, f64::MAX))
}

/// Prop. 10 from head `h` on, over `rows`: keep the rows at the best key
/// of head `h` (all of them under an anti-chain head), bucket them by its
/// code, and hand each bucket to the next head — after the last one, to
/// the tail's key lanes or a BNL window over `better`. Pushes the maxima
/// onto `out`, unordered.
fn head_split(
    acc: &PriorAccess<'_>,
    h: usize,
    rows: &mut dyn Iterator<Item = usize>,
    better: &impl Fn(usize, usize) -> bool,
    out: &mut Vec<usize>,
) {
    let mut top: Vec<usize> = match acc.key(h) {
        // An anti-chain head: every row ties.
        None => rows.collect(),
        Some(key) => {
            let (mut top, mut best) = (Vec::new(), f64::NEG_INFINITY);
            for i in rows {
                let k = key(i);
                if top.is_empty() || k > best {
                    best = k;
                    top.clear();
                }
                if k == best {
                    top.push(i);
                }
            }
            top
        }
    };
    let last = h + 1 == acc.heads();
    if last && matches!(acc.tail(), PriorTail::Empty) {
        out.append(&mut top);
        return;
    }
    let mut coded: Vec<(u64, usize)> = top.into_iter().map(|i| (acc.code(i, h), i)).collect();
    coded.sort_unstable();
    for bucket in coded.chunk_by(|a, b| a.0 == b.0) {
        let mut rows = bucket.iter().map(|&(_, i)| i);
        match acc.tail() {
            _ if !last => head_split(acc, h + 1, &mut rows, better, out),
            PriorTail::Lanes(tail) => {
                out.extend(filter_pass_batch(tail, bucket.len(), |j| bucket[j].1))
            }
            _ => out.extend(bnl_window(better, Vec::new(), rows)),
        }
    }
}

/// The term-walk form of [`head_split`]'s anti-chain head, for an
/// `A↔ & P` whose matrix does not build: bucket the rows by their
/// projection on `A`'s columns `cols` ([`Relation::group_ids`]) and run a
/// BNL window over [`CompiledPref::better`] inside each bucket — rows of
/// different groups are incomparable (Def. 16). Returns sorted rows.
pub(crate) fn group_walk(c: &CompiledPref, r: &Relation, cols: &[usize]) -> Vec<usize> {
    let (ids, _) = r.group_ids(cols);
    let mut rows: Vec<usize> = (0..r.len()).collect();
    rows.sort_by_key(|&i| ids[i]);
    let better = |x: usize, y: usize| c.better(r.row(x), r.row(y));
    let mut maxima: Vec<usize> = (rows.chunk_by(|&x, &y| ids[x] == ids[y]))
        .flat_map(|group| bnl_window(better, Vec::new(), group.iter().copied()))
        .collect();
    maxima.sort_unstable();
    maxima
}

/// Sort and filter rows `row(0) … row(n − 1)` over the key lanes of a
/// flat Pareto order: range every lane, pre-filter, sort the survivors by
/// key sum, then gather, ask the window, accept on `false`. Returns the
/// maxima, unordered. Rows are gathered afresh in every pass, never
/// copied: a gather is a few ns, fresh memory for n rows is not.
fn filter_pass_batch(acc: &ParetoAccess<'_>, n: usize, row: impl Fn(usize) -> usize) -> Vec<usize> {
    let dims = acc.dims();
    let (mut keys, mut other) = (vec![0.0f64; dims], vec![0.0f64; dims]);
    let mut eqs = vec![0u64; dims];
    let mut spans = vec![NO_SPAN; dims];
    for j in 0..n {
        acc.gather(row(j), &mut keys, &mut eqs);
        (spans.iter_mut().zip(&keys)).for_each(|(s, &k)| *s = widened(*s, k));
    }
    let kept = prefilter(n, &spans, dims, |j, k, e| acc.gather(row(j), k, e));
    let mut sum = |i: usize| {
        acc.gather(i, &mut keys, &mut eqs);
        (key_sum(&keys), i)
    };
    let mut order: Vec<(f64, usize)> = kept.into_iter().map(|j| sum(row(j))).collect();
    order.sort_unstable_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| {
                acc.gather(a.1, &mut keys, &mut eqs);
                acc.gather(b.1, &mut other, &mut eqs);
                other.partial_cmp(&keys).expect("keys are never NaN")
            })
            .then(a.1.cmp(&b.1))
    });
    let mut window = AcceptedWindow::new(dims);
    let mut maxima: Vec<usize> = Vec::new();
    for &(_, i) in &order {
        acc.gather(i, &mut keys, &mut eqs);
        if !window.dominates(&keys, &eqs) {
            window.push(&keys, &eqs);
            maxima.push(i);
        }
    }
    maxima
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmo::sigma_naive_generic;
    use pref_core::prelude::*;
    use pref_relation::rel;

    /// SFS on the score matrix when the term materializes.
    fn sfs_on(p: &Pref, r: &Relation) -> Option<Vec<usize>> {
        let c = CompiledPref::compile(p, r.schema()).unwrap();
        try_sfs_with(&c, r, c.score_matrix(r).as_ref())
    }

    #[test]
    fn rejects_preferences_without_utility() {
        // The term walk needs a utility, and POS has none; its key lane
        // on a matrix needs none (a lone key lane: the rows at the best
        // key).
        let r = rel! { ("a": Str); ("x",), ("y",), ("x",) };
        let p = pos("a", ["x"]);
        let c = CompiledPref::compile(&p, r.schema()).unwrap();
        assert!(try_sfs_with::<pref_core::eval::ScoreMatrix>(&c, &r, None).is_none());
        assert_eq!(sfs_on(&p, &r).unwrap(), [0, 2]);
        // EXPLICIT has neither.
        let p = explicit("a", [("y", "x")]).unwrap();
        assert!(sfs_on(&p, &r).is_none());
    }

    #[test]
    fn matches_naive_for_scored_terms() {
        let r = rel! {
            ("a": Int, "b": Int);
            (1, 9), (2, 8), (3, 7), (9, 1), (5, 5), (6, 6), (1, 9), (0, 10),
        };
        for p in [
            lowest("a").pareto(lowest("b")),
            around("a", 3).pareto(between("b", 5, 7).unwrap()),
            highest("b"),
            Pref::rank(CombineFn::sum(), vec![lowest("a"), highest("b")]).unwrap(),
        ] {
            assert_eq!(
                sfs_on(&p, &r).unwrap(),
                sigma_naive_generic(&p, &r).unwrap(),
                "SFS diverged for {p}"
            );
        }
    }

    #[test]
    fn matrix_and_generic_filter_passes_agree() {
        let r = rel! {
            ("a": Int, "b": Int);
            (1, 9), (2, 8), (3, 7), (9, 1), (5, 5), (6, 6), (1, 9), (0, 10),
        };
        let p = around("a", 3).pareto(lowest("b"));
        let c = CompiledPref::compile(&p, r.schema()).unwrap();
        let m = c.score_matrix(&r).expect("scored term materializes");
        assert_eq!(
            try_sfs_with(&c, &r, Some(&m)).unwrap(),
            try_sfs_with::<pref_core::eval::ScoreMatrix>(&c, &r, None).unwrap()
        );
    }

    #[test]
    fn works_with_equal_utilities() {
        // -5 and 5 have equal AROUND(0) utility but are unranked.
        let r = rel! { ("a": Int); (-5,), (5,), (7,) };
        let p = around("a", 0);
        assert_eq!(sfs_on(&p, &r).unwrap(), vec![0, 1]);
    }

    #[test]
    fn rounding_ties_do_not_admit_dominated_rows() {
        use crate::{Algorithm, Engine, Optimizer};
        use pref_core::eval::ScoreMatrix;

        // Both rows sum to exactly -1e16; the one with b = 0.5 dominates.
        let p = around("a", 0.0).pareto(around("b", 0.0));
        for r in [
            rel! { ("a": Float, "b": Float); (1.0e16, 1.0), (1.0e16, 0.5) },
            rel! { ("a": Float, "b": Float); (1.0e16, 0.5), (1.0e16, 1.0) },
        ] {
            let oracle = sigma_naive_generic(&p, &r).unwrap();
            assert_eq!(oracle.len(), 1);
            assert_eq!(sfs_on(&p, &r).unwrap(), oracle, "matrix path");
            let c = CompiledPref::compile(&p, r.schema()).unwrap();
            assert_eq!(
                try_sfs_with::<ScoreMatrix>(&c, &r, None).unwrap(),
                oracle,
                "generic path"
            );
            let forced = Engine::with_optimizer(Optimizer::new().with_algorithm(Algorithm::Sfs));
            let out = forced.prepare(&p, r.schema()).unwrap().execute(&r).unwrap();
            assert_eq!(out.explain().algorithm, Algorithm::Sfs);
            assert_eq!(out.rows(), oracle, "engine");
        }
    }

    #[test]
    fn empty_input() {
        let r = rel! { ("a": Int); };
        assert!(sfs_on(&lowest("a"), &r).unwrap().is_empty());
    }
}
