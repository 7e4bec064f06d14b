//! Divide & conquer maxima (\[KLP75\], the algorithm behind the `SKYLINE
//! OF` clause of \[BKS01\]).
//!
//! Applies to the restricted Pareto shape the paper describes in §6.1:
//! `P1 ⊗ … ⊗ Pk` where each `Pi` is a LOWEST or HIGHEST chain. Tuples
//! become score vectors (higher = better per dimension) and dominance is
//! the coordinate-wise `≥ everywhere ∧ > somewhere` test — which, because
//! chain scores are value-injective, coincides exactly with the strict
//! Pareto order of Def. 8. One row-major pass over the tuples extracts
//! the vectors (and the per-lane spans the pre-filter scales by).
//!
//! Each dimensionality uses what its own ordering guarantees:
//!
//! * d = 1 is a max scan and d = 2 the classic sort-and-sweep over
//!   extracted `(k0, k1, row)` tuples.
//! * **d = 3 is a staircase sweep**, O(n log n) with no pre-filter. Sorted
//!   descending by `(k0, k1, k2)`, a row can only be dominated by an
//!   earlier one; within a run of equal `(k0, k1)` only the rows at the
//!   run's best `k2` survive (the strict part), and they survive iff no
//!   maximum accepted before the run is `≥` on both `k1` and `k2` — such
//!   a row is lexicographically greater on `(k0, k1)`, so `≥` there is
//!   strict dominance. The accepted maxima are kept as a staircase: `k1`
//!   ascending maps to `k2` strictly descending, so the first step at or
//!   past `k1` holds the best `k2` any of them reaches there.
//! * **d ≥ 4 splits.** The window's linear pre-filter first drops what
//!   the 64 best rows dominate; then the rows are sorted once by dim0 and
//!   split at the median, with the median's whole equal-dim0 run kept in
//!   the upper half. Every upper row is then *strictly* better than
//!   every lower row on dim0, so an upper row dominates a lower one iff
//!   it is `≥` on lanes 1..d: the merge asks the window's weak arm — one
//!   compare per lane, pivot masks over the d − 1 informative lanes —
//!   whether a lower maximum is covered by an upper one (upper maxima
//!   loaded by descending sum over those lanes, likely coverers first).
//!   A slice whose median run reaches its end cannot split and is
//!   filtered whole through the strict arm, sorted by descending sum:
//!   equal dim0 gives the weak test nothing to stand on there.
//!
//! **Measured dead end.** The merge filters the lower maxima through the
//! window; KLP75's recursive marriage step (split the merge on the next
//! dimension) was slower on the anti-correlated d = 6 skyline at 25 000
//! rows at every leaf size from 2¹² to 2²⁰ (44–49 ms against 40 ms).

use std::collections::BTreeMap;

use pref_core::eval::CompiledPref;
use pref_relation::Relation;

use super::sfs::key_sum;
use super::window::{prefilter, widened, AcceptedWindow, NO_SPAN};

/// BMO evaluation by divide & conquer over score vectors: `None` when
/// the term is not a Pareto accumulation of score-injective chains, or
/// when some value in a chain column has no numeric embedding (NULLs,
/// strings, NaN) — scoring such a row `-∞` would silently drop it, while
/// the strict Pareto order of Def. 8 keeps it as incomparable, so callers
/// must use another algorithm.
///
/// The score vectors fill one flat row-major buffer through
/// [`dominance_key`](pref_core::base::BasePreference::dominance_key),
/// whose `None`s flag exactly the values (off-axis, `-0.0`) where plain
/// `f64` comparisons disagree with the chain's order.
pub fn try_dnc_compiled(c: &CompiledPref, r: &Relation) -> Option<Vec<usize>> {
    let dims = c.chain_dims()?;
    let d = dims.len();
    let (mut flat, mut spans) = (Vec::with_capacity(r.len() * d), vec![NO_SPAN; d]);
    for t in r.iter() {
        for ((col, base), span) in dims.iter().zip(&mut spans) {
            // `+ 0.0` makes a `-0.0` key `+0.0`: `total_cmp` then agrees
            // with `==` on every key.
            let key = base.dominance_key(&t[*col]).filter(|k| !k.is_nan())? + 0.0;
            *span = widened(*span, key);
            flat.push(key);
        }
    }
    let v = Vectors { d, flat };
    let mut result = match d {
        0 => (0..r.len()).collect(), // no dimensions: nothing dominates anything
        1 => {
            let best = v.flat.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (0..r.len()).filter(|&i| v.flat[i] == best).collect()
        }
        2 => sweep_2d(keyed(&v.flat)),
        3 => staircase(keyed(&v.flat)),
        _ => {
            let kept = prefilter(r.len(), &spans, 0, |i, keys, _| {
                keys.copy_from_slice(v.row(i))
            });
            let mut by_dim0: Vec<(f64, usize)> =
                kept.into_iter().map(|i| (v.row(i)[0], i)).collect();
            by_dim0.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
            let idx: Vec<usize> = by_dim0.into_iter().map(|(_, i)| i).collect();
            split_nd(&v, &idx)
        }
    };
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

/// Row `i`'s `D` keys as [`ordered`] integers beside `i`, sorted
/// descending lexicographically: sweeps sort the keys themselves, with
/// integer compares, instead of indirecting through the buffer.
fn keyed<const D: usize>(flat: &[f64]) -> Vec<([u64; D], usize)> {
    let rows = flat.chunks_exact(D).enumerate();
    let mut keyed: Vec<([u64; D], usize)> = rows
        .map(|(i, keys)| (std::array::from_fn(|d| ordered(keys[d])), i))
        .collect();
    keyed.sort_unstable_by_key(|row| std::cmp::Reverse(row.0));
    keyed
}

/// `k`'s position in `f64::total_cmp` order as an unsigned integer —
/// the order of `<` on keys, which are never NaN or `-0.0`.
fn ordered(k: f64) -> u64 {
    let bits = k.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
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

/// The maxima of a slice that does not split on dim0 (every row from the
/// median down shares it): the sort-filter pass through the window's
/// strict arm. Likely dominators first: descending coordinate sum (SFS's
/// clamped [`key_sum`]), each sum taken once. Equal float sums can hide a
/// dominator behind its victim (see `sfs`'s module doc), so ties go by
/// descending lexicographic coordinates — after which no row is
/// dominated by a later one.
fn filter_by_sum(v: &Vectors, idx: &[usize]) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = (idx.iter()).map(|&i| (key_sum(v.row(i)), i)).collect();
    keyed.sort_unstable_by(|a, b| {
        let lexicographic = || v.row(b.1).partial_cmp(v.row(a.1));
        (b.0.total_cmp(&a.0)).then_with(|| lexicographic().expect("keys are never NaN"))
    });
    let mut window = AcceptedWindow::new(v.d);
    let accept = |&(_, i): &(f64, usize)| {
        let undominated = !window.dominates(v.row(i), &[]);
        if undominated {
            window.push(v.row(i), &[]);
        }
        undominated.then_some(i)
    };
    keyed.iter().filter_map(accept).collect()
}

/// Classic 2-d sweep over rows sorted descending by (dim0, dim1): within
/// each group of equal dim0, survivors are the group's dim1-maxima,
/// provided they strictly exceed the best dim1 seen in higher-dim0 groups
/// (none before the first group: a −∞ there is still a maximum).
fn sweep_2d(rows: Vec<([u64; 2], usize)>) -> Vec<usize> {
    let mut result = Vec::new();
    let mut best1: Option<u64> = None;
    for group in rows.chunk_by(|a, b| a.0[0] == b.0[0]) {
        let group_max = group[0].0[1]; // sorted desc on dim1 within group
        if best1.is_none_or(|best| group_max > best) {
            let top = group.iter().take_while(|row| row.0[1] == group_max);
            result.extend(top.map(|row| row.1));
            best1 = Some(group_max);
        }
    }
    result
}

/// The d = 3 staircase sweep over rows sorted descending by
/// `(k0, k1, k2)` (see the module doc): each run of equal `(k0, k1)`
/// keeps its rows at the run's best `k2` unless an earlier maximum
/// covers `(k1, k2)`; what it keeps joins the staircase.
fn staircase(rows: Vec<([u64; 3], usize)>) -> Vec<usize> {
    let mut stairs = Staircase::default();
    let mut result = Vec::new();
    for run in rows.chunk_by(|a, b| a.0[..2] == b.0[..2]) {
        let [_, k1, k2] = run[0].0;
        if !stairs.covers(k1, k2) {
            let top = run.iter().take_while(|row| row.0[2] == k2);
            result.extend(top.map(|row| row.1));
            stairs.insert(k1, k2);
        }
    }
    result
}

/// Points `(k1, k2)` none of which is `≥` another on both: by `k1`
/// ascending, `k2` strictly descending.
#[derive(Default)]
struct Staircase(BTreeMap<u64, u64>);

impl Staircase {
    /// Is some point `≥ (k1, k2)` on both? The first step at or past
    /// `k1` has the largest `k2` of all such steps.
    fn covers(&self, k1: u64, k2: u64) -> bool {
        let first = self.0.range(k1..).next();
        first.is_some_and(|(_, &best)| best >= k2)
    }

    /// Add an uncovered point; the steps it covers leave.
    fn insert(&mut self, k1: u64, k2: u64) {
        while let Some((&s, _)) = (self.0.range(..=k1).next_back()).filter(|(_, &v)| v <= k2) {
            self.0.remove(&s);
        }
        self.0.insert(k1, k2);
    }
}

/// d ≥ 4 over `idx` sorted by descending dim0: split after the median's
/// equal-dim0 run, so the upper half beats the lower strictly on dim0,
/// and drop each lower maximum that an upper maximum covers on lanes
/// 1..d (the weak merge). A slice the median's run reaches the end of
/// has no split point (a low-cardinality dim0) and is filtered whole —
/// all-pairs `scan` there was a quadratic cliff.
fn split_nd(v: &Vectors, idx: &[usize]) -> Vec<usize> {
    if idx.len() <= 32 {
        return scan(v, idx);
    }
    let mid = idx.len() / 2;
    let split_val = v.row(idx[mid])[0];
    let run = idx[mid..].iter().take_while(|&&i| v.row(i)[0] == split_val);
    let split = mid + run.count();
    if split == idx.len() {
        return filter_by_sum(v, idx);
    }

    let (upper, lower) = idx.split_at(split);
    let mut result = split_nd(v, upper);
    let lower_max = split_nd(v, lower);

    let rest = |i: usize| &v.row(i)[1..];
    let mut by_sum: Vec<(f64, usize)> = result.iter().map(|&u| (key_sum(rest(u)), u)).collect();
    by_sum.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
    let mut window = AcceptedWindow::new(v.d - 1);
    for &(_, u) in &by_sum {
        window.push(rest(u), &[]);
    }
    result.extend(lower_max.into_iter().filter(|&i| !window.covers(rest(i))));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmo::sigma_naive_generic;
    use pref_core::prelude::*;
    use pref_relation::{rel, DataType, Relation, Schema, Value};

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

    #[test]
    fn a_nan_key_is_refused_at_every_dimensionality() {
        // NaN has no place among plain `f64` comparisons: the engine's
        // fallback, not a sweep, must answer.
        for d in 1..=5 {
            let schema = Schema::new((0..d).map(|i| (format!("d{i}"), DataType::Float)));
            let mut r = Relation::empty(schema.unwrap());
            for t in pseudo_random_relation(40, d, d as u64).iter() {
                let row = t.values().iter().map(|v| Value::from(v.as_f64().unwrap()));
                r.push_values(row.collect()).unwrap();
            }
            let nan = (0..d).map(|i| Value::from(if i + 1 == d { f64::NAN } else { 0.0 }));
            r.push_values(nan.collect()).unwrap();
            assert_eq!(dnc_on(&skyline_pref(d), &r), None, "d = {d}");
        }
    }
}
