//! Sort-Filter-Skyline: presort by a monotone utility, then filter.
//!
//! When the preference admits a *topologically compatible* utility
//! (`x <P y ⟹ u(x) < u(y)`, see [`CompiledPref::utility`]), sorting by
//! descending utility guarantees no tuple is dominated by a later one.
//! A single pass comparing each tuple against the already-accepted maxima
//! therefore computes the BMO result, and accepted tuples are final —
//! the progressive behaviour of \[TEO01\]. The filtering pass runs on the
//! score-matrix dominance backend whenever the term materializes.

use pref_core::eval::{CompiledPref, Dominance, ParetoAccess};
use pref_core::term::Pref;
use pref_relation::Relation;

use crate::error::QueryError;

/// BMO evaluation by sort-filter. Fails when the preference has no
/// monotone utility on *every* row — utility is per-value (e.g. a NULL
/// under a scored chain has none), so all rows are checked, not just the
/// first.
pub fn sfs(pref: &Pref, r: &Relation) -> Result<Vec<usize>, QueryError> {
    let c = CompiledPref::compile(pref, r.schema())?;
    try_sfs_with(&c, r, c.score_matrix(r).as_ref()).ok_or_else(|| QueryError::AlgorithmMismatch {
        algorithm: "sort-filter-skyline",
        term: pref.to_string(),
        reason: "preference admits no monotone utility on this input",
    })
}

/// Checked SFS with the dominance backend chosen by the caller (`matrix`
/// from [`CompiledPref::score_matrix`], or `None` for the generic path):
/// `None` when any row lacks a utility (the sort order would not be
/// topologically compatible and silent misresults could follow).
pub fn try_sfs_with<M: Dominance>(
    c: &CompiledPref,
    r: &Relation,
    matrix: Option<&M>,
) -> Option<Vec<usize>> {
    let mut order: Vec<(f64, usize)> = Vec::with_capacity(r.len());
    for i in 0..r.len() {
        order.push((c.utility(r.row(i))?, i));
    }
    // Descending utility; ties broken by row index for determinism.
    order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

    Some(match matrix {
        Some(m) => match m.pareto_access() {
            Some(acc) => filter_pass_batch(&order, &acc),
            None => filter_pass(&order, |x, y| m.better(x, y)),
        },
        None => filter_pass(&order, |x, y| c.better(r.row(x), r.row(y))),
    })
}

fn filter_pass(order: &[(f64, usize)], better: impl Fn(usize, usize) -> bool) -> Vec<usize> {
    let mut maxima: Vec<usize> = Vec::new();
    'next: for &(_, i) in order {
        for &m in &maxima {
            if better(i, m) {
                continue 'next;
            }
        }
        maxima.push(i);
    }
    maxima.sort_unstable();
    maxima
}

/// The filter pass over the structure-of-arrays lanes of a flat Pareto
/// order. SFS only ever asks one direction — can an *accepted* maximum
/// dominate the candidate? (accepted tuples are final under the sort) —
/// so two flag bits per accepted row suffice: strictly-better-somewhere
/// and blocked-somewhere. The accepted lanes are grow-only copies swept
/// contiguously per dimension, like the batch BNL window.
fn filter_pass_batch(order: &[(f64, usize)], acc: &ParetoAccess<'_>) -> Vec<usize> {
    let dims = acc.dims();
    let mut maxima: Vec<usize> = Vec::new();
    let mut mkeys: Vec<Vec<f64>> = vec![Vec::new(); dims];
    let mut meqs: Vec<Vec<u64>> = vec![Vec::new(); dims];
    let mut ckeys = vec![0.0f64; dims];
    let mut ceqs = vec![0u64; dims];
    let mut flags: Vec<u8> = Vec::new();
    'next: for &(_, i) in order {
        acc.gather(i, &mut ckeys, &mut ceqs);
        let w = maxima.len();
        flags.clear();
        flags.resize(w, 0);
        for d in 0..dims {
            let (ck, ce) = (ckeys[d], ceqs[d]);
            let lane = &mkeys[d][..w];
            let elane = &meqs[d][..w];
            let f = &mut flags[..w];
            for j in 0..w {
                let lt = (ck < lane[j]) as u8;
                let ne = (ce != elane[j]) as u8;
                f[j] |= lt | (((lt ^ 1) & ne) << 1);
            }
        }
        // Accepted j dominates the candidate iff strictly better
        // somewhere (bit 0) and blocked nowhere (bit 1).
        if flags.contains(&0b01) {
            continue 'next;
        }
        maxima.push(i);
        for d in 0..dims {
            mkeys[d].push(ckeys[d]);
            meqs[d].push(ceqs[d]);
        }
    }
    maxima.sort_unstable();
    maxima
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmo::sigma_naive;
    use pref_core::prelude::*;
    use pref_relation::rel;

    #[test]
    fn rejects_preferences_without_utility() {
        let r = rel! { ("a": Str); ("x",) };
        let err = sfs(&pos("a", ["x"]), &r).unwrap_err();
        assert!(matches!(err, QueryError::AlgorithmMismatch { .. }));
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
                sfs(&p, &r).unwrap(),
                sigma_naive(&p, &r).unwrap(),
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
        assert_eq!(sfs(&p, &r).unwrap(), vec![0, 1]);
    }

    #[test]
    fn empty_input() {
        let r = rel! { ("a": Int); };
        assert!(sfs(&lowest("a"), &r).unwrap().is_empty());
    }
}
