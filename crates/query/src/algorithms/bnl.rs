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
//! every single-lane head goes to the sort-filter window instead, and
//! `bnl_window` also serves the head split's pairwise tails and result
//! maintenance. The batch kernel and both parallel variants are reachable
//! only when a caller forces [`Algorithm::Bnl`](crate::Algorithm::Bnl) or
//! [`Algorithm::BnlParallel`](crate::Algorithm::BnlParallel) — `perfbench`
//! times them by name, so they stay until the benchmark stops doing so.
//!
//! [`bnl_parallel_matrix`] and [`bnl_parallel_generic`] partition the
//! input (`chunk_ranges`, rounded to the backend's
//! [`Dominance::chunk_alignment`]), compute per-chunk windows on scoped
//! threads, and **tree-merge** the local windows pairwise — O(log k)
//! merge rounds, each round's merges in parallel, instead of one
//! sequential pass over the full union. Sound because
//! `max(P_R) ⊆ max(P_R1) ∪ … ∪ max(P_Rk)` for any chunking. Threads come
//! from `std::thread::scope`; there is no thread-pool dependency and no
//! cargo feature.

use std::ops::Range;

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

/// Parallel partitioned BNL over a materialized dominance backend: split
/// the row range into up to `threads` chunks, compute local maxima per
/// scoped thread, then merge the local windows. Sound because
/// `max(P_R) ⊆ max(P_R1) ∪ … ∪ max(P_Rk)` for any chunking
/// `R = R1 ∪ … ∪ Rk`: a globally maximal tuple is maximal in its chunk.
/// Chunk boundaries round to the backend's
/// [`Dominance::chunk_alignment`], and each chunk takes the batch kernel
/// when the order is flat Pareto.
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

/// The one place a BNL chunk is chosen: cut `0..rows` into up to
/// `threads` chunks whose size is rounded up to a multiple of `align`.
fn chunk_ranges(rows: usize, threads: usize, align: usize) -> Vec<Range<usize>> {
    let mut chunk = rows.div_ceil(threads).max(1);
    if align > 1 {
        chunk = chunk.div_ceil(align) * align;
    }
    let n_chunks = rows.div_ceil(chunk);
    (0..n_chunks)
        .map(|t| {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(rows);
            lo..hi
        })
        .collect()
}

/// Run `job` over every item and collect the results in item order: the
/// first item on the calling thread, each further one on a scoped thread
/// of its own — a single item spawns nothing.
fn fan_out<I: Send, T: Send>(
    items: impl IntoIterator<Item = I>,
    job: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let job = &job;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.map(|item| scope.spawn(move || job(item))).collect();
        let mut out = vec![job(first)];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("BNL worker panicked")),
        );
        out
    })
}

/// Partition `0..rows` by [`chunk_ranges`], solve each chunk locally,
/// then pairwise tree-merge the local windows.
///
/// The merge is a reduction tree: each round halves the window count,
/// running its pairwise merges side by side ([`fan_out`]), so merge
/// latency is O(log k) rounds instead of one sequential pass over the
/// union of all local windows. Pairwise merging is sound for the same
/// reason chunking is — `max(max(A) ∪ max(B)) = max(A ∪ B)` for strict
/// partial orders.
fn partitioned(
    better: impl Fn(usize, usize) -> bool + Sync,
    local: impl Fn(Range<usize>) -> Vec<usize> + Sync,
    rows: usize,
    threads: usize,
    align: usize,
) -> Vec<usize> {
    let mut queue = fan_out(chunk_ranges(rows, threads, align), local);
    while queue.len() > 1 {
        queue = fan_out(queue.chunks(2), |pair| match pair {
            [a, b] => bnl_window(&better, a.clone(), b.iter().copied()),
            [odd] => odd.clone(),
            _ => unreachable!("chunks(2) yields one or two"),
        });
    }

    let mut result = queue.pop().unwrap_or_default();
    result.sort_unstable();
    result
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
    fn parallel_bnl_matches_naive_oracle() {
        let r = sample();
        for p in prefs() {
            let c = CompiledPref::compile(&p, r.schema()).unwrap();
            let oracle = sigma_naive_generic(&p, &r).unwrap();
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    bnl_parallel_generic(&c, &r, threads),
                    oracle,
                    "generic parallel BNL ({threads} threads) diverged for {p}"
                );
                if let Some(m) = c.score_matrix_parallel(&r, threads) {
                    assert_eq!(
                        bnl_parallel_matrix(&m, threads),
                        oracle,
                        "matrix parallel BNL ({threads} threads) diverged for {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_kernel_agrees_across_views_and_chunkings() {
        // A whole matrix of 8 rows is one chunk; windowed views and the
        // generic backend (alignment 1) split it into real chunks, so the
        // gather, the batch flags and the merge tree all run.
        let r = sample();
        let ids: Vec<u32> = vec![6, 0, 3, 7, 4];
        let sub = r.take_rows(&ids.iter().map(|&i| i as usize).collect::<Vec<_>>());
        for p in prefs() {
            let c = CompiledPref::compile(&p, r.schema()).unwrap();
            let oracle = bnl_generic(&c, &r);
            let m = Arc::new(c.score_matrix(&r).expect("every sample term materializes"));
            assert_eq!(bnl_matrix(&*m), oracle, "batch path diverged for {p}");
            let all = MatrixWindow::windowed(Arc::clone(&m), (0..r.len() as u32).collect());
            let some = MatrixWindow::windowed(Arc::clone(&m), ids.clone().into());
            for threads in [1, 2, 3, 8] {
                assert_eq!(bnl_parallel_matrix(&*m, threads), oracle, "{p}");
                assert_eq!(bnl_parallel_matrix(&all, threads), oracle, "{p}");
                assert_eq!(bnl_parallel_generic(&c, &r, threads), oracle, "{p}");
                assert_eq!(
                    bnl_parallel_matrix(&some, threads),
                    bnl_generic(&c, &sub),
                    "windowed parallel path diverged for {p} ({threads} threads)"
                );
            }
        }
    }

    /// The schedule is frozen: these are the boundaries the 4096-row
    /// shard layout produced, and two measured replacements each moved a
    /// benchmark workload (ROADMAP item 2).
    #[test]
    fn chunk_boundaries_are_pinned() {
        assert_eq!(
            chunk_ranges(4096, 2, 4096),
            vec![Range {
                start: 0,
                end: 4096
            }]
        );
        assert_eq!(chunk_ranges(5000, 2, 4096), [0..4096, 4096..5000]);
        assert_eq!(chunk_ranges(9000, 2, 4096), [0..8192, 8192..9000]);
        assert_eq!(chunk_ranges(9000, 2, 1), [0..4500, 4500..9000]);
        assert_eq!(chunk_ranges(12289, 3, 4096), [0..8192, 8192..12289]);
        assert!(chunk_ranges(0, 2, 4096).is_empty());

        let r = sample();
        let c = CompiledPref::compile(&lowest("a").pareto(lowest("b")), r.schema()).unwrap();
        let m = Arc::new(c.score_matrix(&r).unwrap());
        assert_eq!(m.chunk_alignment(), 4096);
        assert_eq!(MatrixWindow::full(Arc::clone(&m)).chunk_alignment(), 4096);
        assert_eq!(
            MatrixWindow::windowed(m, vec![0, 1].into()).chunk_alignment(),
            1
        );
    }

    #[test]
    fn first_chunk_and_first_merges_run_on_the_calling_thread() {
        use parking_lot::Mutex;
        use std::thread::{current, ThreadId};
        let me = current().id();

        // One chunk: nothing is spawned.
        let chunks: Mutex<Vec<(Range<usize>, ThreadId)>> = Mutex::new(Vec::new());
        let local = |range: Range<usize>| {
            chunks.lock().push((range.clone(), current().id()));
            range.collect::<Vec<_>>()
        };
        partitioned(|_, _| false, local, 4096, 2, 4096);
        assert_eq!(*chunks.lock(), [(0..4096, me)]);

        // Four chunks of two rows: chunk 0 here, the rest elsewhere; the
        // merge of chunks 0 and 1 and the final merge here — every test
        // that involves a row below 4 — the merge of chunks 2 and 3
        // elsewhere.
        chunks.lock().clear();
        let tests: Mutex<Vec<(bool, bool, ThreadId)>> = Mutex::new(Vec::new());
        let better = |x: usize, y: usize| {
            tests.lock().push((x < 4, y < 4, current().id()));
            false
        };
        assert_eq!(
            partitioned(better, local, 8, 4, 1),
            (0..8).collect::<Vec<_>>()
        );
        let mut chunks = chunks.into_inner();
        chunks.sort_by_key(|(range, _)| range.start);
        assert_eq!(chunks.len(), 4);
        for (range, thread) in chunks {
            assert_eq!(thread == me, range == (0..2), "chunk {range:?}");
        }
        let tests = tests.into_inner();
        assert!(tests
            .iter()
            .all(|&(x_low, y_low, thread)| thread == me || !(x_low || y_low)));
        assert!(tests.iter().any(|&(.., thread)| thread != me));
    }

    #[test]
    fn full_matrices_split_only_above_the_chunk_granularity() {
        // A low skyline keeps the quadratic oracle cheap: every bulk row
        // is dominated by three maxima placed in three different chunks.
        let build = |n: usize| {
            let mut r = rel! { ("a": Int, "b": Int); };
            for i in 0..n as i64 {
                let (a, b) = match i {
                    100 => (0, 10),
                    5000 => (5, 5),
                    8192 => (10, 0),
                    _ => (1000 + i % 50, 1000 + (i * 7) % 50),
                };
                r.push_values(vec![a.into(), b.into()]).unwrap();
            }
            r
        };
        let p = lowest("a").pareto(lowest("b"));

        // 2 × 4096 + 1 rows: chunks 0..8192 | 8192..8193 on two threads,
        // 0..4096 | 4096..8192 | 8192..8193 on three and on eight.
        let r = build(2 * 4096 + 1);
        let c = CompiledPref::compile(&p, r.schema()).unwrap();
        let m = c.score_matrix(&r).unwrap();
        let sequential = bnl_matrix(&m);
        assert_eq!(sequential, vec![100, 5000, 8192]);
        assert_eq!(sequential, bnl_generic(&c, &r));
        for threads in [2, 3, 8] {
            assert_eq!(bnl_parallel_matrix(&m, threads), sequential);
            assert_eq!(bnl_parallel_generic(&c, &r, threads), sequential);
        }

        // Exactly 4096 rows: a single chunk, the sequential result.
        let r = build(4096);
        let c = CompiledPref::compile(&p, r.schema()).unwrap();
        let m = c.score_matrix(&r).unwrap();
        assert_eq!(chunk_ranges(m.len(), 8, m.chunk_alignment()).len(), 1);
        for threads in [2, 3, 8] {
            assert_eq!(bnl_parallel_matrix(&m, threads), bnl_matrix(&m));
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
        assert!(bnl_parallel_generic(&c, &r, 4).is_empty());
        assert!(bnl_parallel_matrix(&m, 4).is_empty());
    }
}
