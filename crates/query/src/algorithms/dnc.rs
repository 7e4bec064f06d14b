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
//! d = 1 is a max scan and d = 2 the classic sort-and-sweep. At d ≥ 3 the
//! input first goes through the window's linear pre-filter (the rows the
//! 64 best dominate are dropped before any sort; not at d = 2, whose
//! sweep is n log n already), then splits on the first dimension and
//! keeps a lower-half maximum iff no upper-half maximum dominates it.
//! That merge is a filter, not the recursive KLP75 marriage step: the
//! upper maxima are loaded into the early-exit `AcceptedWindow` in
//! descending coordinate-sum order (likely dominators first) and every
//! lower maximum asks it once.

use pref_core::eval::CompiledPref;
use pref_relation::Relation;

use super::sfs::key_sum;
use super::window::{prefilter, widened, AcceptedWindow, NO_SPAN};

/// BMO evaluation by divide & conquer over score vectors: `None` when
/// the term is not a Pareto accumulation of score-injective chains, or
/// when some value in a chain column has no numeric embedding (NULLs,
/// strings) — scoring such a row `-∞` would silently drop it, while the
/// strict Pareto order of Def. 8 keeps it as incomparable, so callers
/// must use another algorithm.
///
/// The score vectors fill one flat row-major buffer a column at a time
/// through [`dominance_key`](pref_core::base::BasePreference::dominance_key),
/// whose `None`s flag exactly the values (off-axis, `-0.0`) where plain
/// `f64` comparisons disagree with the chain's order.
pub fn try_dnc_compiled(c: &CompiledPref, r: &Relation) -> Option<Vec<usize>> {
    let dims = c.chain_dims()?;
    let d = dims.len();
    let mut flat = vec![0.0f64; r.len() * d];
    // Pre-filter from d = 3 up: the 2-d sweep is one sort, and filtering
    // first took the car table's 2-d watch term 1.6 → 1.9–2.0 ms.
    let (prefiltered, mut spans) = (d >= 3, Vec::new());
    for (k, (col, base)) in dims.iter().enumerate() {
        let column = r.column(*col).map_f64(|v| base.dominance_key(v))?;
        if prefiltered {
            spans.push(column.iter().copied().fold(NO_SPAN, widened));
        }
        for (i, key) in column.into_iter().enumerate() {
            flat[i * d + k] = key;
        }
    }
    let vectors = Vectors { d, flat };
    let mut idx: Vec<usize> = if prefiltered {
        prefilter(r.len(), &spans, 0, |i, keys, _| {
            keys.copy_from_slice(vectors.row(i))
        })
    } else {
        (0..r.len()).collect()
    };
    let mut result = maxima(&vectors, &mut idx);
    result.sort_unstable();
    Some(result)
}

/// The score vectors, row-major in one allocation.
struct Vectors {
    d: usize,
    flat: Vec<f64>,
}

impl Vectors {
    fn row(&self, i: usize) -> &[f64] {
        &self.flat[i * self.d..(i + 1) * self.d]
    }
}

/// `a` dominates `b`: every coordinate ≥, at least one >.
fn dominates(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x >= y) && a.iter().zip(b).any(|(x, y)| x > y)
}

/// The quadratic scan behind the small case.
fn scan(v: &Vectors, idx: &[usize]) -> Vec<usize> {
    let undominated = |&i: &usize| !idx.iter().any(|&j| dominates(v.row(j), v.row(i)));
    idx.iter().copied().filter(undominated).collect()
}

/// Likely dominators first: descending coordinate sum (SFS's clamped
/// [`key_sum`]), each sum taken once. Equal float sums can hide a
/// dominator behind its victim (see `sfs`'s module doc), so ties go by
/// descending lexicographic coordinates — after which no row is
/// dominated by a later one.
fn sort_by_descending_sum(v: &Vectors, idx: &mut [usize]) {
    let mut keyed: Vec<(f64, usize)> = (idx.iter()).map(|&i| (key_sum(v.row(i)), i)).collect();
    keyed.sort_unstable_by(|a, b| {
        let lexicographic = || v.row(b.1).partial_cmp(v.row(a.1));
        (b.0.total_cmp(&a.0)).then_with(|| lexicographic().expect("keys are never NaN"))
    });
    (idx.iter_mut().zip(keyed)).for_each(|(slot, (_, i))| *slot = i);
}

/// The maxima of a slice that does not split on dim0 (every row from the
/// median down shares it): the sort-filter pass through the window.
fn filter_by_sum(v: &Vectors, idx: &mut [usize]) -> Vec<usize> {
    sort_by_descending_sum(v, idx);
    let mut window = AcceptedWindow::new(v.d);
    let accept = |&i: &usize| {
        let undominated = !window.dominates(v.row(i), &[]);
        if undominated {
            window.push(v.row(i), &[]);
        }
        undominated
    };
    idx.iter().copied().filter(accept).collect()
}

fn maxima(v: &Vectors, idx: &mut [usize]) -> Vec<usize> {
    match v.d {
        0 => idx.to_vec(), // no dimensions: nothing dominates anything
        1 => {
            let best = idx
                .iter()
                .map(|&i| v.flat[i])
                .fold(f64::NEG_INFINITY, f64::max);
            idx.iter().copied().filter(|&i| v.flat[i] == best).collect()
        }
        2 => sweep_2d(v, idx),
        _ => split_nd(v, idx),
    }
}

/// Classic 2-d sweep: sort descending by (dim0, dim1); within each group
/// of equal dim0, survivors are the group's dim1-maxima, provided they
/// strictly exceed the best dim1 seen in higher-dim0 groups (none before
/// the first group: a −∞ there is still a maximum).
fn sweep_2d(v: &Vectors, idx: &mut [usize]) -> Vec<usize> {
    idx.sort_by(|&a, &b| {
        v.row(b)[0]
            .total_cmp(&v.row(a)[0])
            .then(v.row(b)[1].total_cmp(&v.row(a)[1]))
    });
    let mut result = Vec::new();
    let mut best1: Option<f64> = None;
    let mut i = 0;
    while i < idx.len() {
        // Group of equal dim0.
        let d0 = v.row(idx[i])[0];
        let mut j = i;
        while j < idx.len() && v.row(idx[j])[0] == d0 {
            j += 1;
        }
        let group_max = v.row(idx[i])[1]; // sorted desc on dim1 within group
        if best1.is_none_or(|best| group_max > best) {
            for &k in &idx[i..j] {
                if v.row(k)[1] == group_max {
                    result.push(k);
                }
            }
            best1 = Some(group_max);
        }
        i = j;
    }
    result
}

/// d ≥ 3: split by the median of dim0; the upper half's maxima filter the
/// lower half's. A slice with no split point below the median (a
/// low-cardinality dim0) is filtered whole — all-pairs `scan` there was a
/// quadratic cliff.
fn split_nd(v: &Vectors, idx: &mut [usize]) -> Vec<usize> {
    if idx.len() <= 32 {
        return scan(v, idx);
    }
    idx.sort_by(|&a, &b| v.row(b)[0].total_cmp(&v.row(a)[0]));
    let mid = idx.len() / 2;
    // Keep equal-dim0 runs on one side so "upper ≥ lower on dim0" holds.
    let split_val = v.row(idx[mid])[0];
    let mut split = mid;
    while split < idx.len() && v.row(idx[split])[0] == split_val {
        split += 1;
    }
    if split == idx.len() {
        return filter_by_sum(v, idx);
    }

    let (upper_slice, lower_slice) = idx.split_at_mut(split);
    let mut result = maxima(v, upper_slice);
    let lower_max = maxima(v, lower_slice);

    sort_by_descending_sum(v, &mut result);
    let mut window = AcceptedWindow::new(v.d);
    for &u in &result {
        window.push(v.row(u), &[]);
    }
    result.extend(
        lower_max
            .into_iter()
            .filter(|&i| !window.dominates(v.row(i), &[])),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmo::sigma_naive_generic;
    use pref_core::prelude::*;
    use pref_relation::{rel, Relation, Schema, Value};

    fn dnc_on(p: &Pref, r: &Relation) -> Option<Vec<usize>> {
        try_dnc_compiled(&CompiledPref::compile(p, r.schema()).unwrap(), r)
    }

    #[test]
    fn rejects_non_skyline_terms() {
        let r = rel! { ("a": Int); (1,) };
        assert!(dnc_on(&pos("a", [1i64]), &r).is_none());
        // AROUND is not score-injective: not skyline-shaped.
        assert!(dnc_on(&around("a", 0).pareto(highest("a")), &r).is_none());
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
        let got = dnc_on(&p, &r).unwrap();
        assert_eq!(got, sigma_naive_generic(&p, &r).unwrap());
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
                    dnc_on(&p, &r).unwrap(),
                    sigma_naive_generic(&p, &r).unwrap(),
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
        assert_eq!(
            dnc_on(&p, &r).unwrap(),
            sigma_naive_generic(&p, &r).unwrap()
        );
        assert_eq!(dnc_on(&p, &r).unwrap(), vec![4, 5]);
    }

    #[test]
    fn large_input_exercises_recursive_split() {
        let r = pseudo_random_relation(800, 3, 7);
        let p = skyline_pref(3);
        assert_eq!(
            dnc_on(&p, &r).unwrap(),
            sigma_naive_generic(&p, &r).unwrap()
        );
    }

    #[test]
    fn a_four_valued_first_dimension_goes_through_the_sum_filter() {
        // Every row from the median down shares d0 — at the top (70 %
        // zeros) or one level in (30 %) — so no split exists there; d2
        // trades off against d1, which keeps the skyline wide.
        let p = highest("d0").pareto(highest("d1")).pareto(highest("d2"));
        for zeros in [300, 700] {
            let draws = pseudo_random_relation(2_000, 3, zeros as u64);
            let mut r = Relation::empty(draws.schema().clone());
            for t in draws.iter() {
                let [a, b, c] = [0, 1, 2].map(|i| t[i].as_int().unwrap());
                let a = if a < zeros { 0 } else { 1 + a % 3 };
                let row = [a, b, 1_000 - b + c / 20];
                r.push_values(row.into_iter().map(Value::from).collect())
                    .unwrap();
            }
            let got = dnc_on(&p, &r).unwrap();
            assert!(got.len() > 32, "{zeros}: |σ| = {}", got.len());
            assert_eq!(got, sigma_naive_generic(&p, &r).unwrap(), "{zeros} zeros");
        }
    }

    #[test]
    fn single_dimension_keeps_all_ties() {
        let r = rel! { ("a": Int); (3,), (1,), (3,), (2,) };
        assert_eq!(dnc_on(&highest("a"), &r).unwrap(), vec![0, 2]);
    }
}
