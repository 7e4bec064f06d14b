//! Block-Nested-Loops maxima computation (\[BKS01\]).
//!
//! Maintains a window of candidate maxima; each incoming tuple is dropped
//! if dominated by a window tuple, and evicts window tuples it dominates.
//! Correct for any strict partial order — the only assumption is
//! transitivity, which guarantees a tuple dominated by an evicted
//! candidate is also dominated by the evictor.
//!
//! Two dominance backends drive the same window logic:
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
//! [`bnl_parallel`] partitions the input (shard-aligned when the backend
//! is sharded), computes per-chunk windows on scoped threads, and
//! **tree-merges** the local windows pairwise — O(log k) merge rounds,
//! each round's merges in parallel, instead of one sequential pass over
//! the full union. Sound because `max(P_R) ⊆ max(P_R1) ∪ … ∪ max(P_Rk)`
//! for any chunking. Threads come from `std::thread::scope`; the `rayon`
//! cargo feature is reserved for swapping in a work-stealing pool once
//! that dependency is available offline.

use std::ops::Range;

use pref_core::eval::{CompiledPref, Dominance, ParetoAccess};
use pref_core::term::Pref;
use pref_relation::Relation;

use crate::error::QueryError;

/// BMO evaluation by Block-Nested-Loops. Returns sorted row indices.
/// Picks the score-matrix dominance backend when the term materializes.
pub fn bnl(pref: &Pref, r: &Relation) -> Result<Vec<usize>, QueryError> {
    let c = CompiledPref::compile(pref, r.schema())?;
    Ok(bnl_compiled(&c, r))
}

/// BNL with a pre-compiled preference; materializes a score matrix when
/// possible and falls back to the generic term-walk path otherwise.
pub fn bnl_compiled(c: &CompiledPref, r: &Relation) -> Vec<usize> {
    match c.score_matrix(r) {
        Some(m) => bnl_matrix(&m),
        None => bnl_generic(c, r),
    }
}

/// BNL over a materialized dominance backend — the [`ScoreMatrix`]
/// itself or a [`MatrixWindow`] onto a cached one (the warm path for
/// derived row-id views). Flat Pareto orders take the batch lane kernel.
///
/// [`ScoreMatrix`]: pref_core::eval::ScoreMatrix
/// [`MatrixWindow`]: pref_core::eval::MatrixWindow
pub fn bnl_matrix<M: Dominance>(m: &M) -> Vec<usize> {
    let mut window = match m.pareto_access() {
        Some(acc) => bnl_batch(&acc, 0..acc.len()),
        None => bnl_window(|x, y| m.better(x, y), Vec::new(), 0..m.len()),
    };
    window.sort_unstable();
    window
}

/// The batch BNL window loop over the structure-of-arrays lanes of a
/// flat Pareto order, for rows `range` of the access.
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
fn bnl_batch(acc: &ParetoAccess<'_>, range: Range<usize>) -> Vec<usize> {
    let dims = acc.dims();
    let mut wrows: Vec<usize> = Vec::new();
    let mut wkeys: Vec<Vec<f64>> = vec![Vec::new(); dims];
    let mut weqs: Vec<Vec<u64>> = vec![Vec::new(); dims];
    let mut ckeys = vec![0.0f64; dims];
    let mut ceqs = vec![0u64; dims];
    let mut flags: Vec<u8> = Vec::new();

    'next: for i in range {
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
/// mutually incomparable — empty for a fresh evaluation, one operand's
/// local maxima for a pairwise merge, or a previous result that is being
/// maintained across a mutation (Chomicki's
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

/// Parallel partitioned BNL: split the row range into `threads` shards,
/// compute local maxima per scoped thread (sharing the compiled
/// preference and, when available, one score matrix), then run a final
/// merge pass over the union of the local windows.
///
/// Sound because `max(P_R) ⊆ max(P_R1) ∪ … ∪ max(P_Rk)` for any chunking
/// `R = R1 ∪ … ∪ Rk`: a globally maximal tuple is maximal in its chunk.
pub fn bnl_parallel(pref: &Pref, r: &Relation, threads: usize) -> Result<Vec<usize>, QueryError> {
    let c = CompiledPref::compile(pref, r.schema())?;
    Ok(bnl_parallel_compiled(&c, r, threads))
}

/// Parallel partitioned BNL with a pre-compiled preference. The matrix
/// build itself fans out over the same thread budget as the skyline.
pub fn bnl_parallel_compiled(c: &CompiledPref, r: &Relation, threads: usize) -> Vec<usize> {
    match c.score_matrix_parallel(r, threads) {
        Some(m) => bnl_parallel_matrix(&m, threads),
        None => bnl_parallel_generic(c, r, threads),
    }
}

/// Parallel partitioned BNL over a materialized dominance backend.
/// Chunks align to the backend's shard boundaries so each local window
/// sweeps whole key lanes, and each chunk takes the batch kernel when
/// the order is flat Pareto.
pub fn bnl_parallel_matrix<M: Dominance + Sync>(m: &M, threads: usize) -> Vec<usize> {
    let threads = threads.max(1);
    if threads == 1 || m.len() < 2 * threads {
        return bnl_matrix(m);
    }
    partitioned(
        |x, y| m.better(x, y),
        |range| match m.pareto_access() {
            Some(acc) => bnl_batch(&acc, range),
            None => bnl_window(|x, y| m.better(x, y), Vec::new(), range),
        },
        m.len(),
        threads,
        m.chunk_alignment(),
    )
}

/// Parallel partitioned BNL over the generic term-walk backend.
pub fn bnl_parallel_generic(c: &CompiledPref, r: &Relation, threads: usize) -> Vec<usize> {
    let threads = threads.max(1);
    if threads == 1 || r.len() < 2 * threads {
        return bnl_generic(c, r);
    }
    let better = |x: usize, y: usize| c.better(r.row(x), r.row(y));
    partitioned(
        better,
        |range| bnl_window(better, Vec::new(), range),
        r.len(),
        threads,
        1,
    )
}

/// Partition `0..rows` into up to `threads` chunks (boundaries rounded
/// to `align`), solve each locally on a scoped thread, then pairwise
/// tree-merge the local windows.
///
/// The merge is a reduction tree: each round halves the window count,
/// running its pairwise merges on scoped threads, so merge latency is
/// O(log k) rounds instead of one sequential pass over the union of all
/// local windows. Pairwise merging is sound for the same reason
/// chunking is — `max(max(A) ∪ max(B)) = max(A ∪ B)` for strict partial
/// orders.
fn partitioned(
    better: impl Fn(usize, usize) -> bool + Sync,
    local: impl Fn(Range<usize>) -> Vec<usize> + Sync,
    rows: usize,
    threads: usize,
    align: usize,
) -> Vec<usize> {
    let mut chunk = rows.div_ceil(threads).max(1);
    if align > 1 {
        chunk = chunk.div_ceil(align) * align;
    }
    let n_chunks = rows.div_ceil(chunk);
    let (better, local) = (&better, &local);
    let mut queue: Vec<Vec<usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_chunks)
            .map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(rows);
                scope.spawn(move || local(lo..hi))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("BNL worker panicked"))
            .collect()
    });

    while queue.len() > 1 {
        queue = std::thread::scope(|scope| {
            let handles: Vec<_> = queue
                .chunks(2)
                .map(|pair| {
                    scope.spawn(move || match pair {
                        [a, b] => bnl_window(better, a.clone(), b.iter().copied()),
                        [odd] => odd.clone(),
                        _ => unreachable!("chunks(2) yields one or two"),
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("BNL merge worker panicked"))
                .collect()
        });
    }

    let mut result = queue.pop().unwrap_or_default();
    result.sort_unstable();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmo::sigma_naive;
    use pref_core::prelude::*;
    use pref_relation::rel;

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
            assert_eq!(
                bnl(&p, &r).unwrap(),
                sigma_naive(&p, &r).unwrap(),
                "BNL diverged for {p}"
            );
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
    fn parallel_bnl_matches_naive_oracle() {
        let r = sample();
        for p in prefs() {
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    bnl_parallel(&p, &r, threads).unwrap(),
                    sigma_naive(&p, &r).unwrap(),
                    "parallel BNL ({threads} threads) diverged for {p}"
                );
            }
        }
    }

    #[test]
    fn batch_kernel_agrees_across_shard_layouts() {
        // Tiny shard sizes force lane boundaries inside the 8-row input,
        // exercising gather, batch flags, and shard-aligned partitioning.
        let r = sample();
        for p in prefs() {
            let c = CompiledPref::compile(&p, r.schema()).unwrap();
            let oracle = bnl_generic(&c, &r);
            for (threads, shard_rows) in [(1, 1), (1, 2), (2, 2), (3, 4), (8, 2)] {
                if let Some(m) = c.score_matrix_with(&r, threads, shard_rows) {
                    assert_eq!(bnl_matrix(&m), oracle, "batch path diverged for {p}");
                    assert_eq!(
                        bnl_parallel_matrix(&m, threads),
                        oracle,
                        "sharded parallel path diverged for {p} ({threads} threads)"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicates_all_survive() {
        // Duplicate maximal tuples are mutually unranked — both stay.
        let r = rel! { ("a": Int); (1,), (1,), (2,) };
        assert_eq!(bnl(&lowest("a"), &r).unwrap(), vec![0, 1]);
    }

    #[test]
    fn empty_input() {
        let r = rel! { ("a": Int); };
        assert!(bnl(&lowest("a"), &r).unwrap().is_empty());
        assert!(bnl_parallel(&lowest("a"), &r, 4).unwrap().is_empty());
    }
}
