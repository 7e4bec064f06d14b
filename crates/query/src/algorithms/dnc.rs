//! Divide & conquer maxima (\[KLP75\], the algorithm behind the `SKYLINE
//! OF` clause of \[BKS01\]).
//!
//! Applies to the restricted Pareto shape the paper describes in §6.1:
//! `P1 ⊗ … ⊗ Pk` where each `Pi` is a LOWEST or HIGHEST chain. Tuples
//! become score vectors (higher = better per dimension) and dominance is
//! the coordinate-wise `≥ everywhere ∧ > somewhere` test — which, because
//! chain scores are value-injective, coincides exactly with the strict
//! Pareto order of Def. 8.
//!
//! d = 1 and d = 2 use the classic sort-and-sweep; d ≥ 3 splits on the
//! first dimension and filters the lower half's maxima against the upper
//! half's (a simplification of the full KLP75 marriage step with the same
//! O(n log n) behaviour on d = 2..3 and good practical performance).

use pref_core::eval::CompiledPref;
use pref_core::term::Pref;
use pref_relation::Relation;

use crate::error::QueryError;

/// BMO evaluation by divide & conquer over score vectors. Fails with
/// [`QueryError::AlgorithmMismatch`] when the term is not a Pareto
/// accumulation of score-injective chains, or when some value in a chain
/// column has no numeric embedding (NULLs, strings) — scoring such a row
/// `-∞` would silently drop it, while the strict Pareto order of Def. 8
/// keeps it as incomparable.
pub fn dnc(pref: &Pref, r: &Relation) -> Result<Vec<usize>, QueryError> {
    let c = CompiledPref::compile(pref, r.schema())?;
    try_dnc_compiled(&c, r).ok_or_else(|| QueryError::AlgorithmMismatch {
        algorithm: "divide & conquer",
        term: pref.to_string(),
        reason: "not a Pareto accumulation of LOWEST/HIGHEST chains \
                 over numerically embeddable columns",
    })
}

/// Checked D&C: `None` when the term is not skyline-shaped or some chain
/// value lacks a numeric embedding (then coordinate-wise dominance would
/// diverge from Def. 8 and callers must use another algorithm).
///
/// The score vectors are materialized column-at-a-time: one pass per
/// chain dimension over the relation's columnar view, rather than one
/// term-tree walk per tuple. The per-dimension embedding is
/// [`dominance_key`](pref_core::base::BasePreference::dominance_key),
/// whose `None`s flag exactly the values (off-axis, `-0.0`) where plain
/// `f64` comparisons disagree with the chain's order.
pub fn try_dnc_compiled(c: &CompiledPref, r: &Relation) -> Option<Vec<usize>> {
    try_dnc_compiled_parallel(c, r, 1)
}

/// [`try_dnc_compiled`] with the recursion's top level partitioned over
/// `threads` scoped worker threads: each chunk of the row range computes
/// its local maxima independently, and the locals pairwise tree-merge
/// with a mutual coordinate-wise filter. Sound for the same reason
/// partitioned BNL is — a globally maximal vector is maximal in its
/// chunk (`max(P_R) ⊆ max(P_R1) ∪ … ∪ max(P_Rk)`).
pub fn try_dnc_compiled_parallel(
    c: &CompiledPref,
    r: &Relation,
    threads: usize,
) -> Option<Vec<usize>> {
    let dims = c.chain_dims()?;
    let columns: Vec<Vec<f64>> = dims
        .iter()
        .map(|(col, base)| r.column(*col).map_f64(|v| base.dominance_key(v)))
        .collect::<Option<_>>()?;
    let vectors: Vec<Vec<f64>> = (0..r.len())
        .map(|i| columns.iter().map(|col| col[i]).collect())
        .collect();

    let threads = threads.max(1);
    let mut result = if threads == 1 || vectors.len() < 2 * threads {
        let mut idx: Vec<usize> = (0..vectors.len()).collect();
        maxima(&vectors, &mut idx)
    } else {
        let chunk = vectors.len().div_ceil(threads);
        let vectors = &vectors;
        let mut queue: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..vectors.len().div_ceil(chunk))
                .map(|t| {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(vectors.len());
                    scope.spawn(move || {
                        let mut idx: Vec<usize> = (lo..hi).collect();
                        maxima(vectors, &mut idx)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("D&C worker panicked"))
                .collect()
        });
        // Pairwise tree merge: each side keeps what the other side's
        // maxima fail to dominate.
        while queue.len() > 1 {
            queue = std::thread::scope(|scope| {
                let handles: Vec<_> = queue
                    .chunks(2)
                    .map(|pair| {
                        scope.spawn(move || match pair {
                            [a, b] => merge_maxima(vectors, a, b),
                            [odd] => odd.clone(),
                            _ => unreachable!("chunks(2) yields one or two"),
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("D&C merge worker panicked"))
                    .collect()
            });
        }
        queue.pop().unwrap_or_default()
    };
    result.sort_unstable();
    Some(result)
}

/// Merge two local maxima sets by mutual filtering: a vector survives
/// iff no vector of the *other* side dominates it (its own side already
/// proved it locally maximal).
fn merge_maxima(vectors: &[Vec<f64>], a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = a
        .iter()
        .copied()
        .filter(|&i| b.iter().all(|&j| !dominates(&vectors[j], &vectors[i])))
        .collect();
    out.extend(
        b.iter()
            .copied()
            .filter(|&i| a.iter().all(|&j| !dominates(&vectors[j], &vectors[i]))),
    );
    out
}

/// `a` dominates `b`: every coordinate ≥, at least one >.
fn dominates(a: &[f64], b: &[f64]) -> bool {
    let mut strict = false;
    for (x, y) in a.iter().zip(b) {
        if x < y {
            return false;
        }
        if x > y {
            strict = true;
        }
    }
    strict
}

fn maxima(vectors: &[Vec<f64>], idx: &mut [usize]) -> Vec<usize> {
    if idx.is_empty() {
        return Vec::new();
    }
    let d = vectors[idx[0]].len();
    match d {
        0 => idx.to_vec(), // no dimensions: nothing dominates anything
        1 => {
            let best = idx
                .iter()
                .map(|&i| vectors[i][0])
                .fold(f64::NEG_INFINITY, f64::max);
            idx.iter()
                .copied()
                .filter(|&i| vectors[i][0] == best)
                .collect()
        }
        2 => sweep_2d(vectors, idx),
        _ => split_nd(vectors, idx),
    }
}

/// Classic 2-d sweep: sort descending by (dim0, dim1); within each group
/// of equal dim0, survivors are the group's dim1-maxima, provided they
/// strictly exceed the best dim1 seen in higher-dim0 groups.
fn sweep_2d(vectors: &[Vec<f64>], idx: &mut [usize]) -> Vec<usize> {
    idx.sort_by(|&a, &b| {
        vectors[b][0]
            .total_cmp(&vectors[a][0])
            .then(vectors[b][1].total_cmp(&vectors[a][1]))
    });
    let mut result = Vec::new();
    let mut best1 = f64::NEG_INFINITY;
    let mut i = 0;
    while i < idx.len() {
        // Group of equal dim0.
        let d0 = vectors[idx[i]][0];
        let mut j = i;
        while j < idx.len() && vectors[idx[j]][0] == d0 {
            j += 1;
        }
        let group_max = vectors[idx[i]][1]; // sorted desc on dim1 within group
        if group_max > best1 {
            for &k in &idx[i..j] {
                if vectors[k][1] == group_max {
                    result.push(k);
                }
            }
            best1 = group_max;
        }
        i = j;
    }
    result
}

/// d ≥ 3: split by the median of dim0; the upper half's maxima filter the
/// lower half's.
fn split_nd(vectors: &[Vec<f64>], idx: &mut [usize]) -> Vec<usize> {
    if idx.len() <= 32 {
        // Small base case: quadratic scan.
        return idx
            .iter()
            .copied()
            .filter(|&i| {
                idx.iter()
                    .all(|&j| j == i || !dominates(&vectors[j], &vectors[i]))
            })
            .collect();
    }
    idx.sort_by(|&a, &b| vectors[b][0].total_cmp(&vectors[a][0]));
    let mid = idx.len() / 2;
    // Keep equal-dim0 runs on one side so "upper ≥ lower on dim0" holds.
    let split_val = vectors[idx[mid]][0];
    let mut split = mid;
    while split < idx.len() && vectors[idx[split]][0] == split_val {
        split += 1;
    }
    if split == idx.len() {
        // Degenerate: everything from mid on shares dim0; fall back.
        return idx
            .iter()
            .copied()
            .filter(|&i| {
                idx.iter()
                    .all(|&j| j == i || !dominates(&vectors[j], &vectors[i]))
            })
            .collect();
    }

    let (upper_slice, lower_slice) = idx.split_at_mut(split);
    let upper_max = maxima(vectors, upper_slice);
    let lower_max = maxima(vectors, lower_slice);

    let mut result = upper_max.clone();
    for i in lower_max {
        if upper_max
            .iter()
            .all(|&u| !dominates(&vectors[u], &vectors[i]))
        {
            result.push(i);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmo::sigma_naive;
    use pref_core::prelude::*;
    use pref_relation::{rel, Relation, Schema, Value};

    #[test]
    fn rejects_non_skyline_terms() {
        let r = rel! { ("a": Int); (1,) };
        let err = dnc(&pos("a", [1i64]), &r).unwrap_err();
        assert!(matches!(err, QueryError::AlgorithmMismatch { .. }));
        let err = dnc(&around("a", 0).pareto(highest("a")), &r).unwrap_err();
        assert!(matches!(err, QueryError::AlgorithmMismatch { .. }));
    }

    #[test]
    fn matches_naive_on_example7_cars() {
        // Example 7's Car-DB with LOWEST(price) ⊗ LOWEST(mileage).
        let r = rel! {
            ("price": Int, "mileage": Int);
            (40_000, 15_000), (35_000, 30_000), (20_000, 10_000),
            (15_000, 35_000), (15_000, 30_000),
        };
        let p = lowest("price").pareto(lowest("mileage"));
        let got = dnc(&p, &r).unwrap();
        assert_eq!(got, sigma_naive(&p, &r).unwrap());
        // Paper: the Pareto-optimal set is {val3, val5}.
        assert_eq!(got, vec![2, 4]);
    }

    fn pseudo_random_relation(n: usize, d: usize, seed: u64) -> Relation {
        // Deterministic LCG — no RNG dependency needed here.
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as i64
        };
        let schema =
            Schema::new((0..d).map(|i| (format!("d{i}"), pref_relation::DataType::Int))).unwrap();
        let mut r = Relation::empty(schema);
        for _ in 0..n {
            r.push_values((0..d).map(|_| Value::from(next())).collect())
                .unwrap();
        }
        r
    }

    fn skyline_pref(d: usize) -> Pref {
        Pref::pareto_all(
            (0..d)
                .map(|i| {
                    if i % 2 == 0 {
                        lowest(format!("d{i}").as_str())
                    } else {
                        highest(format!("d{i}").as_str())
                    }
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn matches_naive_on_random_dimensions() {
        for d in 1..=5 {
            for seed in 0..4 {
                let r = pseudo_random_relation(120, d, seed * 31 + d as u64);
                let p = skyline_pref(d);
                assert_eq!(
                    dnc(&p, &r).unwrap(),
                    sigma_naive(&p, &r).unwrap(),
                    "d={d}, seed={seed}"
                );
            }
        }
    }

    #[test]
    fn handles_ties_and_duplicates() {
        let r = rel! {
            ("a": Int, "b": Int);
            (1, 1), (1, 1), (1, 2), (2, 1), (2, 2), (2, 2),
        };
        let p = highest("a").pareto(highest("b"));
        assert_eq!(dnc(&p, &r).unwrap(), sigma_naive(&p, &r).unwrap());
        assert_eq!(dnc(&p, &r).unwrap(), vec![4, 5]);
    }

    #[test]
    fn large_input_exercises_recursive_split() {
        let r = pseudo_random_relation(800, 3, 7);
        let p = skyline_pref(3);
        assert_eq!(dnc(&p, &r).unwrap(), sigma_naive(&p, &r).unwrap());
    }

    #[test]
    fn parallel_partitioning_agrees_with_sequential() {
        for d in 1..=4 {
            let r = pseudo_random_relation(500, d, 13 + d as u64);
            let p = skyline_pref(d);
            let c = CompiledPref::compile(&p, r.schema()).unwrap();
            let sequential = try_dnc_compiled(&c, &r).unwrap();
            for threads in [2, 3, 8] {
                assert_eq!(
                    try_dnc_compiled_parallel(&c, &r, threads).unwrap(),
                    sequential,
                    "d={d}, threads={threads}"
                );
            }
        }
        // Tiny inputs take the sequential fallback but stay correct.
        let r = pseudo_random_relation(3, 2, 99);
        let c = CompiledPref::compile(&skyline_pref(2), r.schema()).unwrap();
        assert_eq!(
            try_dnc_compiled_parallel(&c, &r, 8).unwrap(),
            try_dnc_compiled(&c, &r).unwrap()
        );
    }

    #[test]
    fn single_dimension_keeps_all_ties() {
        let r = rel! { ("a": Int); (3,), (1,), (3,), (2,) };
        assert_eq!(dnc(&highest("a"), &r).unwrap(), vec![0, 2]);
    }
}
