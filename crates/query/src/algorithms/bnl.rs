//! Block-Nested-Loops maxima computation (\[BKS01\]).
//!
//! Maintains a window of candidate maxima; each incoming tuple is dropped
//! if dominated by a window tuple, and evicts window tuples it dominates.
//! Correct for any strict partial order — the only assumption is
//! transitivity, which guarantees a tuple dominated by an evicted
//! candidate is also dominated by the evictor.
//!
//! Every kernel here is handed its dominance backend; none compiles a
//! term or builds a matrix (that is `Engine`'s job). Two backends drive
//! the same window logic:
//!
//! * the **score-matrix path** ([`bnl_matrix`]) — dominance tests are
//!   `f64`/`u32` comparisons over the columnar
//!   [`ScoreMatrix`](pref_core::eval::ScoreMatrix) (or a
//!   [`MatrixWindow`](pref_core::eval::MatrixWindow) onto a cached
//!   one), used whenever the term materializes;
//! * the **generic path** ([`bnl_generic`]) — term-tree walks via
//!   [`CompiledPref::better`], correct for any strict partial order.
//!
//! The matrix path further specializes flat Pareto orders (every operand
//! a dominance key) into a **batch kernel** (`bnl_batch`): the window's
//! keys and equality codes live in per-dimension structure-of-arrays
//! lanes, and each candidate is compared against a whole contiguous lane
//! at a time with branch-free flag accumulation — the inner loop
//! auto-vectorizes, paying no per-row stride arithmetic and no plan
//! interpretation.
//!
//! The planner sends only orders *without* key lanes here (EXPLICIT,
//! intersection/union, a Pareto head, a dual): every flat key order and
//! every single-lane or anti-chain head goes to the sort-filter window
//! instead, and
//! `bnl_window` also serves the head split's pairwise tails and result
//! maintenance. The batch kernel is reachable only when a caller forces
//! [`Algorithm::Bnl`](crate::Algorithm::Bnl) (or its pinned alias
//! [`Algorithm::BnlParallel`](crate::Algorithm::BnlParallel)) on a flat
//! Pareto order — `perfbench` times it by name, so it stays until the
//! benchmark stops doing so (ROADMAP item 1(a)).

use pref_core::eval::{CompiledPref, Dominance, ParetoAccess};
use pref_relation::Relation;

/// BNL over a materialized dominance backend — the [`ScoreMatrix`]
/// itself or a [`MatrixWindow`] onto a cached one (the warm path for
/// derived row-id views). Flat Pareto orders take the batch lane kernel.
///
/// [`ScoreMatrix`]: pref_core::eval::ScoreMatrix
/// [`MatrixWindow`]: pref_core::eval::MatrixWindow
pub fn bnl_matrix<M: Dominance>(m: &M) -> Vec<usize> {
    let mut window = match m.pareto_access() {
        Some(acc) => bnl_batch(&acc),
        None => bnl_window(|x, y| m.better(x, y), Vec::new(), 0..m.len()),
    };
    window.sort_unstable();
    window
}

/// The batch BNL window loop over the structure-of-arrays lanes of a
/// flat Pareto order, over every row of the access.
///
/// The window's per-dimension keys and equality codes are kept in
/// caller-owned contiguous lanes (copied on insert, `swap_remove`d on
/// evict, mirroring the row list), so the per-candidate work is `dims`
/// sweeps over contiguous `f64`/`u64` lanes with branch-free flag
/// accumulation — no stride arithmetic, no plan dispatch, and in the
/// common several-dimension case an auto-vectorizable inner loop.
///
/// Per window member `j`, four accumulated bits relate it to the
/// candidate `c` (`lt`/`gt` = strict key order on a dimension, `ne` =
/// unequal equality codes there; equal codes imply equal keys, never
/// the converse):
///
/// * bit 0 — member strictly better somewhere (`lt`);
/// * bit 1 — member blocked somewhere (`!lt & ne`);
/// * bit 2 — candidate strictly better somewhere (`gt`);
/// * bit 3 — candidate blocked somewhere (`!gt & ne`).
///
/// Def. 8 then reads: member dominates `c` iff bits 0..2 equal `01`,
/// and `c` dominates member iff bits 2..4 equal `01`. Checking all
/// discards *before* any eviction is equivalent to the interleaved
/// classic loop because window members are mutually incomparable: a
/// candidate dominated by one member dominates no other (transitivity
/// would rank two members).
fn bnl_batch(acc: &ParetoAccess<'_>) -> Vec<usize> {
    let dims = acc.dims();
    let mut wrows: Vec<usize> = Vec::new();
    let mut wkeys: Vec<Vec<f64>> = vec![Vec::new(); dims];
    let mut weqs: Vec<Vec<u64>> = vec![Vec::new(); dims];
    let mut ckeys = vec![0.0f64; dims];
    let mut ceqs = vec![0u64; dims];
    let mut flags: Vec<u8> = Vec::new();

    'next: for i in 0..acc.len() {
        acc.gather(i, &mut ckeys, &mut ceqs);
        let w = wrows.len();
        flags.clear();
        flags.resize(w, 0);
        for d in 0..dims {
            let (ck, ce) = (ckeys[d], ceqs[d]);
            let lane = &wkeys[d][..w];
            let elane = &weqs[d][..w];
            let f = &mut flags[..w];
            for j in 0..w {
                let lt = (ck < lane[j]) as u8;
                let gt = (lane[j] < ck) as u8;
                let ne = (ce != elane[j]) as u8;
                f[j] |= lt | (((lt ^ 1) & ne) << 1) | (gt << 2) | (((gt ^ 1) & ne) << 3);
            }
        }
        if flags.iter().any(|&f| f & 0b0011 == 0b0001) {
            continue 'next;
        }
        let mut j = 0;
        while j < wrows.len() {
            if flags[j] & 0b1100 == 0b0100 {
                wrows.swap_remove(j);
                flags.swap_remove(j);
                for d in 0..dims {
                    wkeys[d].swap_remove(j);
                    weqs[d].swap_remove(j);
                }
            } else {
                j += 1;
            }
        }
        wrows.push(i);
        for d in 0..dims {
            wkeys[d].push(ckeys[d]);
            weqs[d].push(ceqs[d]);
        }
    }
    wrows
}

/// BNL over the generic term-walk dominance backend.
pub fn bnl_generic(c: &CompiledPref, r: &Relation) -> Vec<usize> {
    let mut window = bnl_window(|x, y| c.better(r.row(x), r.row(y)), Vec::new(), 0..r.len());
    window.sort_unstable();
    window
}

/// The one plain BNL window loop, over an arbitrary strict-partial-order
/// test on row indices: insert `indices` into `window`, returning the
/// unsorted candidates. `window` seeds the loop and must already be
/// mutually incomparable — empty for a fresh evaluation, or a previous
/// result that is being maintained across a mutation (Chomicki's
/// `max(P, A ∪ B) = max(P, max(P, A) ∪ B)`).
pub(crate) fn bnl_window(
    better: impl Fn(usize, usize) -> bool,
    mut window: Vec<usize>,
    indices: impl IntoIterator<Item = usize>,
) -> Vec<usize> {
    'next: for i in indices {
        let mut j = 0;
        while j < window.len() {
            if better(i, window[j]) {
                // An existing candidate dominates i: discard i.
                continue 'next;
            }
            if better(window[j], i) {
                // i dominates the candidate: evict it.
                window.swap_remove(j);
            } else {
                j += 1;
            }
        }
        window.push(i);
    }
    window
}

/// [`bnl_matrix`]: sequential BNL, whatever `_threads` says. The name
/// and the parameter stay only because `perfbench` calls them (ROADMAP
/// item 1(a)).
pub fn bnl_parallel_matrix<M: Dominance>(m: &M, _threads: usize) -> Vec<usize> {
    bnl_matrix(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmo::sigma_naive_generic;
    use pref_core::eval::MatrixWindow;
    use pref_core::prelude::*;
    use pref_relation::rel;
    use std::sync::Arc;

    fn sample() -> pref_relation::Relation {
        rel! {
            ("a": Int, "b": Int, "c": Str);
            (1, 9, "x"), (2, 8, "y"), (3, 7, "x"), (9, 1, "z"),
            (5, 5, "x"), (6, 6, "y"), (1, 9, "x"), (0, 10, "z"),
        }
    }

    fn prefs() -> Vec<Pref> {
        vec![
            lowest("a").pareto(lowest("b")),
            around("a", 3).prior(highest("b")),
            pos("c", ["x"]).pareto(lowest("a")),
            neg("c", ["z"]).prior(around("b", 6).pareto(lowest("a"))),
            highest("a").dual(),
            // Not score-representable: forces the generic path.
            explicit("c", [("z", "x")]).unwrap().prior(lowest("a")),
        ]
    }

    #[test]
    fn bnl_matches_naive_oracle() {
        let r = sample();
        for p in prefs() {
            let c = CompiledPref::compile(&p, r.schema()).unwrap();
            let oracle = sigma_naive_generic(&p, &r).unwrap();
            assert_eq!(bnl_generic(&c, &r), oracle, "generic BNL diverged for {p}");
            if let Some(m) = c.score_matrix(&r) {
                assert_eq!(bnl_matrix(&m), oracle, "matrix BNL diverged for {p}");
            }
        }
    }

    #[test]
    fn matrix_and_generic_paths_agree() {
        let r = sample();
        for p in prefs() {
            let c = CompiledPref::compile(&p, r.schema()).unwrap();
            if let Some(m) = c.score_matrix(&r) {
                assert_eq!(
                    bnl_matrix(&m),
                    bnl_generic(&c, &r),
                    "paths diverged for {p}"
                );
            }
        }
    }

    #[test]
    fn batch_kernel_agrees_across_views_and_chunkings() {
        // The batch kernel over the whole matrix and over two windowed
        // views of it: the gather runs through the window's row ids, and
        // a subset's answer is a fresh subset's.
        let r = sample();
        let ids: Vec<u32> = vec![6, 0, 3, 7, 4];
        let sub = r.take_rows(&ids.iter().map(|&i| i as usize).collect::<Vec<_>>());
        for p in prefs() {
            let c = CompiledPref::compile(&p, r.schema()).unwrap();
            let oracle = bnl_generic(&c, &r);
            let m = Arc::new(c.score_matrix(&r).expect("every sample term materializes"));
            assert_eq!(bnl_matrix(&*m), oracle, "batch path diverged for {p}");
            let all = MatrixWindow::windowed(Arc::clone(&m), (0..r.len() as u32).collect());
            assert_eq!(bnl_matrix(&all), oracle, "whole window diverged for {p}");
            let some = MatrixWindow::windowed(Arc::clone(&m), ids.clone().into());
            assert_eq!(
                bnl_matrix(&some),
                bnl_generic(&c, &sub),
                "windowed path diverged for {p}"
            );
        }
    }

    #[test]
    fn duplicates_all_survive() {
        // Duplicate maximal tuples are mutually unranked — both stay.
        let r = rel! { ("a": Int); (1,), (1,), (2,) };
        let c = CompiledPref::compile(&lowest("a"), r.schema()).unwrap();
        assert_eq!(bnl_generic(&c, &r), vec![0, 1]);
        assert_eq!(bnl_matrix(&c.score_matrix(&r).unwrap()), vec![0, 1]);
    }

    #[test]
    fn empty_input() {
        let r = rel! { ("a": Int); };
        let c = CompiledPref::compile(&lowest("a"), r.schema()).unwrap();
        let m = c.score_matrix(&r).unwrap();
        assert!(bnl_generic(&c, &r).is_empty());
        assert!(bnl_matrix(&m).is_empty());
    }
}
