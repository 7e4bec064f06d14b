//! The grow-only window of *accepted* rows under SFS's filter pass and
//! the D&C merge, and the one question both ask of it: does any accepted
//! row dominate this candidate? SFS asks it strictly (Def. 8, two flag
//! bits per member); the D&C merge asks the *weak* arm — is any accepted
//! row `≥` on every lane, one compare per lane — over lanes 1..d, because
//! its split already makes every accepted row strictly better on dim0.
//!
//! Both callers insert likely dominators first (SFS by descending
//! utility, the merge by descending coordinate sum), so the first
//! [`HEAD`] accepted rows — the killers — stay one flat run of lanes, the
//! *head*, swept over growing blocks in insertion order with a stop after
//! the first block that holds a dominator; inside a block it is the batch
//! BNL window's branch-free per-lane flag accumulation.
//!
//! **Pivot-mask partitions.** The moment the head fills, its per-lane
//! median becomes the *pivot* `v`, and every later row `x` joins the
//! partition of its mask `mask(x) = {d : key_x[d] < v[d]}` (the first
//! [`MASK_LANES`] lanes; each partition is the same lanes, swept by the
//! same blocked loop). A candidate `q` sweeps the head and then only the
//! partitions whose mask is a subset of `mask(q)`, fewest bits first
//! (better than the pivot on more lanes: likelier dominators). Sound for
//! every arm of the kernel and for *any* `v` — the pivot need not be a
//! row: a dominator `p` of `q` has `key_p[d] ≥ key_q[d]` on every lane
//! (equal codes imply equal keys), so `key_p[d] < v[d] ⇒ key_q[d] < v[d]`,
//! i.e. `mask(p) ⊆ mask(q)`; a partition with a bit the candidate lacks
//! holds no dominator and is skipped unseen. (This is the point-based
//! space partitioning of BSkyTree/OSP, one level deep.) The weak arm's
//! coverer is `≥` on every lane too, so the same masks prune it.
//!
//! **Why one level, and what remains.** Counted on the largest
//! `skyline-scan` cell (anti-correlated d = 6 skyline, 25 000 rows,
//! |σ| = 8 849): an SFS pass drops from 44.0 M member tests in 236 k
//! blocks to 11.7 M in 366 k, the D&C merges from 54.2 M in 448 k to
//! 15.9 M in 581 k. Re-pivoting full partitions (a second level almost
//! never forms), whole-partition sweeps and a "blocked only" kernel lost;
//! what is left is loop overhead over ~32-member blocks, not compares.
//! Behind the pre-filter the merges' strict all-lane test made 12.3 M
//! member tests in 451 k blocks; the weak arm over lanes 1..d makes
//! 12.3 M in 371 k, at one compare per member and lane instead of two.
//!
//! **The pre-filter** ([`prefilter`], LESS's elimination filter) runs
//! before SFS's presort and D&C's split (at d ≥ 4: D&C's sweeps are
//! n log n already): the [`FILTER_ROWS`] rows of highest key sum, each
//! not dominated by an earlier one, fill a window, and one pass drops the
//! rows it dominates. Sound for any filter rows: a dominated row has a
//! maximal dominator and a maximal row has none, so `max(P, survivors) =
//! max(P, R)`. Keys are min-max normalised per lane (a lane of zero or
//! non-finite range adds 0: no NaN): mileages dwarf car prices, and raw
//! sums took the BMW `price AROUND ⊗ LOWEST(mileage)` SFS 0.16 → 0.24 ms.
//! It bails on a sample that mostly survives ([`SAMPLE`]); 62 % of the
//! anti-correlated d = 6 skyline survives it.
//!
//! **The eliminator goes first.** The pass remembers the filter row that
//! eliminated the latest dropped row and tests each new row against it
//! alone, one scalar Def. 8 test with the sweep's flag rule, sweeping the
//! window only when that test fails (the self-organizing window of
//! Börzsönyi, Kossmann and Stocker, *The Skyline Operator*, where a
//! window tuple that eliminates a row moves to the front). The sweep asks
//! the same question of the same rows, so the kept set is the same row for
//! row; it only reports *which* member dominated. Without it even a row
//! the first filter row dominates paid for a 16-member block. On the
//! d ≥ 4 `skyline-scan` kernels (25 000 rows, SFS and D&C, in process)
//! the test passes took 85 / 73 ms summed before and 56 / 58 ms after;
//! the remembered row settles 619 rows of the anti-correlated d = 6
//! skyline and 24 997 of the correlated one.

/// A sweep's first block and the cap its doubling stops at. Measured on
/// the 18 `skyline-scan` cells at 25 000 rows: first ∈ {8, 16, 32, 64} ×
/// cap ∈ {128 … whole window} all land within run-to-run noise of one
/// another; 16/256 keeps the flag scratch at 2 KB.
const FIRST_BLOCK: usize = 16;
const MAX_BLOCK: usize = 256;
/// Accepted rows kept flat before the pivot is taken.
const HEAD: usize = 256;
/// Lanes that contribute a mask bit: at most `2^MASK_LANES` partitions.
const MASK_LANES: usize = 8;
/// The pre-filter's rows (inputs of up to [`HEAD`] rows go unfiltered).
/// E = 16/32/64/128/256: D&C on the 18 `skyline-scan` cells 98/84–92/82–85/
/// 81–82/82–83 ms, SFS 109–122 ms throughout (25 000 rows, 2-core Xeon).
const FILTER_ROWS: usize = 64;
/// It bails when under a quarter of the first `n / SAMPLE` rows (`n / 8`,
/// `n / 32` alike) fall. Never bailing: four-valued-d0 D&C 6.4 → 8.5–8.9
/// ms; bailing under half (anti-correlated d = 6): cells' D&C 82 → 94 ms.
const SAMPLE: usize = 16;

/// Structure-of-arrays copies of some accepted rows' dominance keys and
/// equality codes (equal codes imply equal keys, never the converse).
/// Value-injective keys need no codes: such callers pass empty `eqs`.
struct Lanes {
    /// `keys[d][j]`: dimension `d` of the `j`-th row.
    keys: Vec<Vec<f64>>,
    eqs: Vec<Vec<u64>>,
}

impl Lanes {
    fn new(dims: usize) -> Self {
        Lanes {
            keys: vec![Vec::new(); dims],
            eqs: vec![Vec::new(); dims],
        }
    }

    fn len(&self) -> usize {
        self.keys.first().map_or(0, Vec::len)
    }

    /// The row joins the end of every lane.
    fn push(&mut self, keys: &[f64], eqs: &[u64]) {
        (self.keys.iter_mut().zip(keys)).for_each(|(lane, &k)| lane.push(k));
        (self.eqs.iter_mut().zip(eqs)).for_each(|(lane, &e)| lane.push(e));
    }

    /// The first of these rows that dominates the candidate (Def. 8), if
    /// any. Two flag bits per member: strictly better somewhere (bit 0),
    /// and blocked somewhere — not better there and another value (bit
    /// 1); it dominates iff it ends a block as `01`. Flags are as wide as
    /// the lanes, so the loops vectorize unnarrowed (`u8`: 2× slower a
    /// pass).
    fn dominates(&self, flags: &mut [u64; MAX_BLOCK], keys: &[f64], eqs: &[u64]) -> Option<usize> {
        let len = self.len();
        let (mut lo, mut block) = (0, FIRST_BLOCK);
        while lo < len {
            let hi = (lo + block).min(len);
            let flags = &mut flags[..hi - lo];
            flags.fill(0);
            for (d, (lane, &ck)) in self.keys.iter().zip(keys).enumerate() {
                let members = flags.iter_mut().zip(&lane[lo..hi]);
                match eqs.get(d) {
                    Some(&ce) => members.zip(&self.eqs[d][lo..hi]).for_each(|((f, &k), &e)| {
                        let lt = (ck < k) as u64;
                        *f |= lt | (((lt ^ 1) & (ce != e) as u64) << 1);
                    }),
                    None => members.for_each(|(f, &k)| {
                        *f |= (ck < k) as u64 | (((k < ck) as u64) << 1);
                    }),
                }
            }
            // `contains` vectorizes; `position` runs once, on a hit.
            if flags.contains(&0b01) {
                return flags.iter().position(|&f| f == 0b01).map(|at| lo + at);
            }
            lo = hi;
            block = (2 * block).min(MAX_BLOCK);
        }
        None
    }

    /// Does row `j` dominate the candidate? [`Lanes::dominates`]' flag
    /// rule for one member.
    fn beats(&self, j: usize, keys: &[f64], eqs: &[u64]) -> bool {
        let mut f = 0;
        for (d, (lane, &ck)) in self.keys.iter().zip(keys).enumerate() {
            let k = lane[j];
            let lt = (ck < k) as u64;
            f |= match eqs.get(d) {
                Some(&ce) => lt | (((lt ^ 1) & (ce != self.eqs[d][j]) as u64) << 1),
                None => lt | (((k < ck) as u64) << 1),
            };
        }
        f == 0b01
    }

    /// Is one of these rows `≥` the candidate on every lane? The same
    /// blocked sweep with one compare per lane: a member ends a block at
    /// 0 unless it is worse somewhere.
    fn covers(&self, flags: &mut [u64; MAX_BLOCK], keys: &[f64]) -> bool {
        let len = self.len();
        let (mut lo, mut block) = (0, FIRST_BLOCK);
        while lo < len {
            let hi = (lo + block).min(len);
            let flags = &mut flags[..hi - lo];
            flags.fill(0);
            for (lane, &ck) in self.keys.iter().zip(keys) {
                let members = flags.iter_mut().zip(&lane[lo..hi]);
                members.for_each(|(f, &k)| *f |= (k < ck) as u64);
            }
            if flags.contains(&0) {
                return true;
            }
            lo = hi;
            block = (2 * block).min(MAX_BLOCK);
        }
        false
    }
}

/// The accepted rows: the head, then — once it is full — one [`Lanes`]
/// per pivot mask in use.
pub(super) struct AcceptedWindow {
    head: Lanes,
    /// Per-lane median of the full head; empty until then.
    pivot: Vec<f64>,
    /// Non-empty partitions, ascending by (mask bit count, mask).
    parts: Vec<(usize, Lanes)>,
    flags: [u64; MAX_BLOCK],
}

/// `{d : keys[d] < pivot[d]}` over the first [`MASK_LANES`] lanes.
fn mask(pivot: &[f64], keys: &[f64]) -> usize {
    let lanes = pivot.iter().zip(keys).take(MASK_LANES).enumerate();
    lanes.fold(0, |m, (d, (v, k))| m | (usize::from(k < v) << d))
}

impl AcceptedWindow {
    pub(super) fn new(dims: usize) -> Self {
        AcceptedWindow {
            head: Lanes::new(dims),
            pivot: Vec::new(),
            parts: Vec::new(),
            flags: [0; MAX_BLOCK],
        }
    }

    /// Accept a row: into the head while it has room, else into its
    /// mask's partition.
    pub(super) fn push(&mut self, keys: &[f64], eqs: &[u64]) {
        if self.pivot.is_empty() {
            self.head.push(keys, eqs);
            if self.head.len() == HEAD {
                self.pivot = (self.head.keys.iter().cloned())
                    .map(|mut lane| *lane.select_nth_unstable_by(HEAD / 2, f64::total_cmp).1)
                    .collect();
            }
            return;
        }
        let m = mask(&self.pivot, keys);
        let rank = |m: usize| (m.count_ones(), m);
        let at = match self.parts.binary_search_by_key(&rank(m), |p| rank(p.0)) {
            Ok(at) => at,
            Err(at) => {
                self.parts.insert(at, (m, Lanes::new(keys.len())));
                at
            }
        };
        self.parts[at].1.push(keys, eqs);
    }

    /// Does an accepted row dominate the candidate? The head, then the
    /// partitions that can hold a dominator.
    pub(super) fn dominates(&mut self, keys: &[f64], eqs: &[u64]) -> bool {
        if self.pivot.is_empty() {
            return self.head.dominates(&mut self.flags, keys, eqs).is_some();
        }
        let parts = reachable(&self.parts, mask(&self.pivot, keys));
        std::iter::once(&self.head)
            .chain(parts.map(|(_, lanes)| lanes))
            .any(|lanes| lanes.dominates(&mut self.flags, keys, eqs).is_some())
    }

    /// Is an accepted row `≥` the candidate on every lane? The weak arm,
    /// for value-injective callers that know any such row to be strictly
    /// better on a lane outside the window; the same partitions can hold
    /// one.
    pub(super) fn covers(&mut self, keys: &[f64]) -> bool {
        let parts = reachable(&self.parts, mask(&self.pivot, keys));
        std::iter::once(&self.head)
            .chain(parts.map(|(_, lanes)| lanes))
            .any(|lanes| lanes.covers(&mut self.flags, keys))
    }
}

/// The partitions whose mask is a subset of the candidate's mask `m`.
fn reachable(parts: &[(usize, Lanes)], m: usize) -> impl Iterator<Item = &(usize, Lanes)> {
    parts.iter().filter(move |(p, _)| p & !m == 0)
}

/// A lane's key range `(lo, hi)`, widened in a pass the caller makes anyway.
pub(super) type Span = (f64, f64);
pub(super) const NO_SPAN: Span = (f64::INFINITY, f64::NEG_INFINITY);
pub(super) fn widened((lo, hi): Span, k: f64) -> Span {
    (lo.min(k), hi.max(k))
}

/// `(lane, lo, 1 / range)` of every lane where that is finite and > 0.
fn scaled(spans: &[Span]) -> Vec<(usize, f64, f64)> {
    let scale = |(d, &(lo, hi)): (usize, &Span)| (d, lo, 1.0 / (hi - lo));
    let lanes = spans.iter().enumerate().map(scale);
    lanes.filter(|l| l.2.is_finite() && l.2 > 0.0).collect()
}

/// The rows of `0..n` that no filter row dominates, ascending — all of
/// them when `n ≤ HEAD` or the sample bails. `gather(i, keys, eqs)` fills
/// row `i`'s keys and its `eq_lanes` equality codes (0: value-injective).
pub(super) fn prefilter(
    n: usize,
    spans: &[Span],
    eq_lanes: usize,
    gather: impl Fn(usize, &mut [f64], &mut [u64]),
) -> Vec<usize> {
    if n <= HEAD {
        return (0..n).collect();
    }
    let filter = filter_rows(n, spans, eq_lanes, &gather);
    let (mut keys, mut eqs) = (vec![0.0; spans.len()], vec![0; eq_lanes]);
    // `last`: the filter row that eliminated the latest eliminated row,
    // asked alone before the sweep (the first filter row holds a place).
    let (mut flags, mut last) = ([0; MAX_BLOCK], 0);
    let (sample, mut kept) = (n / SAMPLE, Vec::new());
    for i in 0..n {
        if i == sample && 4 * (sample - kept.len()) < sample {
            return (0..n).collect();
        }
        gather(i, &mut keys, &mut eqs);
        if filter.beats(last, &keys, &eqs) {
            continue;
        }
        match filter.dominates(&mut flags, &keys, &eqs) {
            Some(j) => last = j,
            None => kept.push(i),
        }
    }
    kept
}

/// The pre-filter's window: of the [`FILTER_ROWS`] rows of highest
/// normalised key sum, best first, each that no earlier one dominates.
fn filter_rows(
    n: usize,
    spans: &[Span],
    eq_lanes: usize,
    gather: &impl Fn(usize, &mut [f64], &mut [u64]),
) -> Lanes {
    let (mut keys, mut eqs) = (vec![0.0; spans.len()], vec![0; eq_lanes]);
    let lanes = scaled(spans);
    // The FILTER_ROWS best scores, kept while streaming (a score array of
    // n rows is fresh memory, whose page faults cost more than the pass).
    let mut best: Vec<(f64, usize)> = Vec::with_capacity(FILTER_ROWS);
    let mut floor = (f64::NEG_INFINITY, 0);
    for i in 0..n {
        gather(i, &mut keys, &mut eqs);
        let score = lanes.iter().map(|&(d, lo, s)| (keys[d] - lo) * s).sum();
        if best.len() < FILTER_ROWS {
            best.push((score, i));
        } else if score > floor.0 {
            best[floor.1] = (score, i);
        } else {
            continue;
        }
        if best.len() == FILTER_ROWS {
            let lowest = (best.iter().enumerate()).min_by(|a, b| a.1 .0.total_cmp(&b.1 .0));
            floor = lowest
                .map(|(at, &(s, _))| (s, at))
                .expect("FILTER_ROWS > 0");
        }
    }
    best.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
    let (mut filter, mut flags) = (Lanes::new(spans.len()), [0; MAX_BLOCK]);
    for &(_, i) in &best {
        gather(i, &mut keys, &mut eqs);
        if filter.dominates(&mut flags, &keys, &eqs).is_none() {
            filter.push(&keys, &eqs);
        }
    }
    filter
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Members `(j, -j)` are mutually incomparable and none dominates
    /// the candidate `(-1, 0.5)`; a dominator `(0, 1)` of the candidate
    /// replaces the member at `at`.
    fn window_with_dominator(len: usize, at: Option<usize>) -> AcceptedWindow {
        let mut w = AcceptedWindow::new(2);
        for j in 0..len {
            if Some(j) == at {
                w.push(&[0.0, 1.0], &[]);
            } else {
                w.push(&[j as f64 + 1.0, -(j as f64)], &[]);
            }
        }
        w
    }

    /// Does the row `(pk, pe)` dominate `(keys, eqs)` (Def. 8)? Codes
    /// decide equality where the candidate has them, keys elsewhere.
    fn beats(pk: &[f64], pe: &[u64], keys: &[f64], eqs: &[u64]) -> bool {
        let differs = |d: usize| match eqs.get(d) {
            Some(&e) => pe[d] != e,
            None => pk[d] != keys[d],
        };
        let dims = 0..keys.len();
        dims.clone().any(|d| keys[d] < pk[d])
            && dims.clone().all(|d| keys[d] < pk[d] || !differs(d))
    }

    /// The unblocked, unpartitioned reference: every member, every
    /// dimension.
    fn full_sweep(w: &AcceptedWindow, keys: &[f64], eqs: &[u64]) -> bool {
        let all = std::iter::once(&w.head).chain(w.parts.iter().map(|(_, lanes)| lanes));
        all.flat_map(|l| (0..l.len()).map(move |j| (l, j)))
            .any(|(l, j)| {
                let pk: Vec<f64> = l.keys.iter().map(|lane| lane[j]).collect();
                let pe: Vec<u64> = l
                    .eqs
                    .iter()
                    .filter_map(|lane| lane.get(j))
                    .copied()
                    .collect();
                beats(&pk, &pe, keys, eqs)
            })
    }

    /// The weak reference: is any member `≥` the candidate on every lane?
    fn full_cover(w: &AcceptedWindow, keys: &[f64]) -> bool {
        let all = std::iter::once(&w.head).chain(w.parts.iter().map(|(_, lanes)| lanes));
        all.flat_map(|l| (0..l.len()).map(move |j| (l, j)))
            .any(|(l, j)| l.keys.iter().zip(keys).all(|(lane, &k)| lane[j] >= k))
    }

    /// A window whose full head puts the pivot at 128 on every lane but
    /// the last and cannot dominate a row that is ≥ 0 there: lane `l` of
    /// head row `i` is `i · (2l + 1) mod 256` (a permutation of 0..256),
    /// the last lane is −1000. `code` derives a row's equality codes.
    fn pivoted(dims: usize, code: Option<fn(f64) -> u64>) -> AcceptedWindow {
        let mut w = AcceptedWindow::new(dims);
        for i in 0..HEAD {
            let mut row: Vec<f64> = (0..dims)
                .map(|l| ((i * (2 * l + 1)) % 256) as f64)
                .collect();
            row[dims - 1] = -1000.0;
            w.push(&row, &codes(&row, code));
        }
        assert!(w.pivot[..dims - 1].iter().all(|&v| v == 128.0));
        w
    }

    fn codes(row: &[f64], code: Option<fn(f64) -> u64>) -> Vec<u64> {
        code.map_or(Vec::new(), |f| row.iter().map(|&k| f(k)).collect())
    }

    fn masks(w: &AcceptedWindow) -> Vec<usize> {
        w.parts.iter().map(|(m, _)| *m).collect()
    }

    fn swept(w: &AcceptedWindow, keys: &[f64]) -> Vec<usize> {
        let parts = reachable(&w.parts, mask(&w.pivot, keys));
        parts.map(|(m, _)| *m).collect()
    }

    #[test]
    fn finds_a_dominator_in_any_block_and_only_there() {
        let candidate = [-1.0, 0.5];
        for at in [0, 15, 16, 47, 255, 256, 999] {
            let mut w = window_with_dominator(1000, Some(at));
            assert!(full_sweep(&w, &candidate, &[]), "reference, at {at}");
            assert!(w.dominates(&candidate, &[]), "dominator at {at}");
        }
        for len in [0, 1, 16, 17, 48, 256, 257, 1000] {
            let mut w = window_with_dominator(len, None);
            assert!(!full_sweep(&w, &candidate, &[]), "reference, len {len}");
            assert!(!w.dominates(&candidate, &[]), "no dominator in {len}");
        }
    }

    #[test]
    fn equal_keys_with_different_values_block_at_a_block_edge() {
        // AROUND 0 over -5 and 5: equal keys, different equality codes.
        for at in [0, 15, 16, 47, 48, 255, 256] {
            let mut w = AcceptedWindow::new(2);
            for j in 0..=at {
                let (a, code) = if j == at {
                    (-5.0, 5)
                } else {
                    (-9.0 - j as f64, 9)
                };
                w.push(&[a, j as f64], &[code, j as u64]);
            }
            // Better on dim 1, equal *key* on dim 0 but another value.
            let (keys, eqs) = ([-5.0, at as f64 - 0.5], [6, u64::MAX]);
            assert!(!full_sweep(&w, &keys, &eqs));
            assert!(!w.dominates(&keys, &eqs), "blocked member at {at}");
            // The same value on dim 0 is dominated.
            let eqs = [5, u64::MAX];
            assert!(full_sweep(&w, &keys, &eqs));
            assert!(w.dominates(&keys, &eqs), "dominating member at {at}");
        }
    }

    #[test]
    fn the_head_fills_before_the_first_partition_forms() {
        for (len, in_parts) in [(255, 0), (256, 0), (257, 1), (2_000, 1_744)] {
            let w = window_with_dominator(len, None);
            assert_eq!(w.head.len(), len.min(HEAD), "head of {len}");
            assert_eq!(w.pivot.is_empty(), len < HEAD, "pivot of {len}");
            let held: usize = w.parts.iter().map(|(_, lanes)| lanes.len()).sum();
            assert_eq!(held, in_parts, "partitioned rows of {len}");
        }
        // (j + 1, −j) against the pivot (129, −128): later rows are all
        // better on lane 0 and worse on lane 1 — one partition.
        assert_eq!(masks(&window_with_dominator(2_000, None)), [0b10]);
    }

    #[test]
    fn sweeps_subset_masks_only_and_finds_the_dominator_there() {
        let mut w = pivoted(3, None);
        // One member per mask over lanes 0 and 1; lane 2 keeps the head
        // out of it.
        let members = [
            [200.0, 200.0, 5.0], // {}
            [100.0, 300.0, 5.0], // {0}
            [300.0, 100.0, 5.0], // {1}
            [100.0, 100.0, 9.0], // {0, 1}
        ];
        members.iter().for_each(|p| w.push(p, &[]));
        assert_eq!(masks(&w), [0b00, 0b01, 0b10, 0b11], "fewest bits first");

        // Mask {}: every other partition has a bit the candidate lacks —
        // none is swept, and none held a dominator.
        let q = [150.0, 150.0, 6.0];
        assert_eq!(swept(&w, &q), [0b00]);
        assert!(!full_sweep(&w, &q, &[]));
        assert!(!w.dominates(&q, &[]));
        // Mask {0, 1}: its dominator sits in the strict-subset partition
        // {}, which a superset test (`m ⊆ p`) would never visit.
        let q = [90.0, 90.0, 1.0];
        assert_eq!(swept(&w, &q), [0b00, 0b01, 0b10, 0b11]);
        assert!(full_sweep(&w, &q, &[]));
        assert!(w.dominates(&q, &[]));
        // Mask {1}: {0} and {0, 1} are skipped; the dominator is in {1}.
        let q = [250.0, 90.0, 5.0];
        assert_eq!(swept(&w, &q), [0b00, 0b10]);
        assert!(full_sweep(&w, &q, &[]));
        assert!(w.dominates(&q, &[]));
    }

    #[test]
    fn keys_equal_to_the_pivot_carry_no_bit() {
        let mut w = pivoted(3, None);
        // On the pivot on lane 0: mask {}, and it dominates rows below
        // the pivot there (mask {0}) and rows on it.
        w.push(&[128.0, 200.0, 5.0], &[]);
        assert_eq!(masks(&w), [0b00]);
        for q in [
            [127.0, 200.0, 5.0],
            [128.0, 199.0, 5.0],
            [128.0, 100.0, 5.0],
        ] {
            assert!(full_sweep(&w, &q, &[]), "{q:?}");
            assert!(w.dominates(&q, &[]), "{q:?}");
        }
        // A candidate on the pivot is not reached from the {0} partition
        // and no row there dominates it; its duplicate does not either.
        w.push(&[127.0, 300.0, 9.0], &[]);
        for q in [[128.0, 250.0, 5.0], [128.0, 200.0, 5.0]] {
            assert_eq!(swept(&w, &q), [0b00]);
            assert!(!full_sweep(&w, &q, &[]), "{q:?}");
            assert!(!w.dominates(&q, &[]), "{q:?}");
        }
    }

    #[test]
    fn equality_codes_decide_across_partitions() {
        // AROUND 0: the key is −|x|, the code tells −5 from 5. Lane 0 is
        // far above its pivot for every row here (no bit); lane 1 picks
        // the partition; lane 2 shields from the head.
        let code: fn(f64) -> u64 = |k| k.to_bits();
        let mut w = pivoted(3, Some(code));
        let minus_five = |rest: [f64; 2]| ([995.0, rest[0], rest[1]], [5, 0, 0]);
        w.push(&minus_five([200.0, 5.0]).0, &[5, 200, 5]); // mask {}
        w.push(&minus_five([100.0, 5.0]).0, &[5, 100, 5]); // mask {1}
        assert_eq!(masks(&w), [0b00, 0b10]);
        for (lane1, what) in [(90.0, "another partition"), (150.0, "the same partition")] {
            let keys = [995.0, lane1, 5.0];
            // +5 on lane 0: equal key, another value — blocked everywhere.
            let eqs = [6, lane1 as u64, 5];
            assert!(!full_sweep(&w, &keys, &eqs), "+5, {what}");
            assert!(!w.dominates(&keys, &eqs), "+5, {what}");
            // −5 on lane 0: the same value — dominated.
            let eqs = [5, lane1 as u64, 5];
            assert!(full_sweep(&w, &keys, &eqs), "−5, {what}");
            assert!(w.dominates(&keys, &eqs), "−5, {what}");
        }
    }

    /// Deterministic rows in `[0, 256)^dims`, last lane ≥ 0.
    fn lcg_rows(n: usize, dims: usize, state: u64) -> Vec<Vec<f64>> {
        let mut rng = Lcg(state);
        (0..n)
            .map(|_| (0..dims).map(|_| rng.below(256) as f64).collect())
            .collect()
    }

    #[test]
    fn agrees_with_the_full_sweep_on_many_partitions_and_lanes() {
        // d = 10 has more lanes than mask bits: lanes 8 and 9 decide
        // inside a partition. Integer keys tie often, so the strict and
        // the blocked bit both matter in either arm.
        let bits: fn(f64) -> u64 = |k| k.to_bits();
        for (dims, code) in [(3, None), (6, None), (6, Some(bits)), (10, None)] {
            let mut w = pivoted(dims, code);
            let rows = lcg_rows(2_000, dims, dims as u64);
            let (members, candidates) = rows.split_at(1_744);
            members.iter().for_each(|p| w.push(p, &codes(p, code)));
            assert!(w.parts.len() > dims, "{dims} lanes: {:?}", masks(&w));
            let mut dominated = 0;
            for q in candidates.iter().chain(members.iter().step_by(7)) {
                let eqs = codes(q, code);
                let expected = full_sweep(&w, q, &eqs);
                assert_eq!(w.dominates(q, &eqs), expected, "{dims} lanes, {q:?}");
                dominated += usize::from(expected);
            }
            assert!(dominated > 0, "{dims} lanes: some candidate is dominated");
        }
    }

    #[test]
    fn an_all_equal_member_covers_but_never_dominates() {
        // The candidate's twin among incomparable members, in the head,
        // at a block edge and in a partition.
        let candidate = [-1.0, 0.5];
        for at in [0, 15, 16, 47, 255, 256, 999] {
            let mut w = window_with_dominator(1000, None);
            let mut twin = window_with_dominator(at, None);
            twin.push(&candidate, &[]);
            for j in at + 1..1000 {
                twin.push(&[j as f64 + 1.0, -(j as f64)], &[]);
            }
            assert!(
                !full_cover(&w, &candidate) && !w.covers(&candidate),
                "no twin"
            );
            assert!(full_cover(&twin, &candidate), "reference, twin at {at}");
            assert!(twin.covers(&candidate), "twin at {at}");
            assert!(
                !full_sweep(&twin, &candidate, &[]),
                "reference, twin at {at}"
            );
            assert!(!twin.dominates(&candidate, &[]), "twin at {at}");
        }
        // A window of nothing but twins, past the head: every row sits on
        // the pivot (mask {}), and still none dominates strictly.
        let mut w = AcceptedWindow::new(3);
        (0..HEAD + 100).for_each(|_| w.push(&[2.0, 2.0, 2.0], &[]));
        assert_eq!(masks(&w), [0b000]);
        assert!(w.covers(&[2.0, 2.0, 2.0]) && !w.dominates(&[2.0, 2.0, 2.0], &[]));
        assert!(w.covers(&[2.0, 1.0, 2.0]) && w.dominates(&[2.0, 1.0, 2.0], &[]));
        assert!(!w.covers(&[2.0, 3.0, 2.0]));
    }

    #[test]
    fn the_weak_arm_sweeps_subset_masks_only_and_agrees_with_the_full_sweep() {
        let mut w = pivoted(3, None);
        [
            [200.0, 200.0, 5.0],
            [100.0, 300.0, 5.0],
            [300.0, 100.0, 5.0],
        ]
        .iter()
        .for_each(|p| w.push(p, &[]));
        // Mask {1}: covered by its equal in {1}, never by {0}'s member.
        let q = [300.0, 100.0, 5.0];
        assert_eq!(swept(&w, &q), [0b00, 0b10]);
        assert!(full_cover(&w, &q) && w.covers(&q));
        assert!(!full_cover(&w, &[100.0, 300.0, 6.0]) && !w.covers(&[100.0, 300.0, 6.0]));
        // Random integer keys tie often: ≥ and > part ways everywhere.
        for dims in [3, 6, 10] {
            let mut w = pivoted(dims, None);
            let rows = lcg_rows(2_000, dims, 3 * dims as u64);
            let (members, candidates) = rows.split_at(1_744);
            members.iter().for_each(|p| w.push(p, &[]));
            assert!(w.parts.len() > dims, "{dims} lanes: {:?}", masks(&w));
            let mut covered = 0;
            for q in candidates.iter().chain(members.iter().step_by(7)) {
                let expected = full_cover(&w, q);
                assert_eq!(w.covers(q), expected, "{dims} lanes, {q:?}");
                covered += usize::from(expected);
            }
            assert!(
                covered > 0 && covered < 256 + 250,
                "{dims} lanes: {covered}"
            );
        }
    }

    /// The pre-filter over `rows` with per-row codes `eqs` (all empty:
    /// keys only), checked against the unfiltered answer: the survivors
    /// hold every maximum, and their maxima are the maxima.
    fn filtered(rows: &[Vec<f64>], eqs: &[Vec<u64>]) -> Vec<usize> {
        let kept = prefilter(rows.len(), &spans_of(rows), eqs[0].len(), |i, k, e| {
            k.copy_from_slice(&rows[i]);
            e.copy_from_slice(&eqs[i]);
        });
        let maxima = |ids: &[usize]| -> Vec<usize> {
            let beaten = |q: usize| {
                ids.iter()
                    .any(|&p| beats(&rows[p], &eqs[p], &rows[q], &eqs[q]))
            };
            ids.iter().copied().filter(|&q| !beaten(q)).collect()
        };
        let all: Vec<usize> = (0..rows.len()).collect();
        let expected = maxima(&all);
        assert!(kept.windows(2).all(|w| w[0] < w[1]), "ascending");
        for i in &expected {
            assert!(kept.binary_search(i).is_ok(), "maximum {i} was dropped");
        }
        assert_eq!(maxima(&kept), expected);
        kept
    }

    fn spans_of(rows: &[Vec<f64>]) -> Vec<Span> {
        let lane = |d: usize| rows.iter().map(move |r| r[d]);
        (0..rows[0].len())
            .map(|d| lane(d).fold(NO_SPAN, widened))
            .collect()
    }

    fn no_codes(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        vec![Vec::new(); rows.len()]
    }

    #[test]
    fn the_prefilter_keeps_every_maximum_and_drops_the_bulk() {
        let bits: fn(f64) -> u64 = |k| k.to_bits();
        for (dims, code) in [(3, None), (6, None), (3, Some(bits)), (6, Some(bits))] {
            let rows = lcg_rows(1_000, dims, 7 * dims as u64);
            let eqs: Vec<Vec<u64>> = rows.iter().map(|r| codes(r, code)).collect();
            let kept = filtered(&rows, &eqs);
            assert!(kept.len() < rows.len() / 2, "{dims} lanes: {}", kept.len());
        }
    }

    #[test]
    fn exact_duplicates_of_a_filter_row_both_survive() {
        let mut rows = lcg_rows(1_000, 3, 3);
        rows[5] = vec![300.0; 3];
        rows[700] = vec![300.0; 3];
        assert_eq!(filtered(&rows, &no_codes(&rows)), [5, 700]);
    }

    #[test]
    fn equal_keys_with_other_codes_never_eliminate_each_other() {
        // AROUND 0.5 over 0.4 (code 4) and 0.6 (code 6): key −0.1 either
        // way. Row 0 (0.4) beats every row on lanes 1 and 2; the others
        // are an antichain there, alternating 0.4 and 0.6.
        let row = |j: usize| vec![-0.1, j as f64, 999.0 - j as f64];
        let rows: Vec<Vec<f64>> = std::iter::once(vec![-0.1, 1_000.0, 1_000.0])
            .chain((0..1_000).map(row))
            .collect();
        let value = |i: usize| if i == 0 || i % 2 == 1 { 4 } else { 6 };
        let eqs = |value: &dyn Fn(usize) -> u64| -> Vec<Vec<u64>> {
            let code = |i: usize, d: usize| rows[i][d].to_bits();
            (0..rows.len())
                .map(|i| vec![value(i), code(i, 1), code(i, 2)])
                .collect()
        };
        let kept = filtered(&rows, &eqs(&value));
        let sixes: Vec<usize> = (0..rows.len()).filter(|&i| value(i) == 6).collect();
        assert_eq!(kept, [vec![0], sixes].concat(), "every 0.6 survives");
        // Every row at 0.4: row 0 eliminates the rest.
        assert_eq!(filtered(&rows, &eqs(&|_| 4)), [0]);
    }

    #[test]
    fn lanes_of_zero_or_non_finite_range_do_not_score() {
        let (inf, max) = (f64::INFINITY, f64::MAX);
        let rows: Vec<Vec<f64>> = lcg_rows(1_000, 3, 11)
            .into_iter()
            .enumerate()
            .map(|(j, r)| {
                let wide = [max, -max, r[1]][j % 3];
                let ragged = if j % 10 == 0 { -inf } else { r[2] };
                vec![7.0, inf, wide, ragged, r[0], r[1], r[2]]
            })
            .collect();
        let spans: Vec<Span> = (0..7)
            .map(|d| rows.iter().fold(NO_SPAN, |s, r| widened(s, r[d])))
            .collect();
        // Constant (0), ∞ − ∞ (1), overflowing (2), infinite (3): none.
        let lanes = scaled(&spans);
        assert_eq!(lanes.iter().map(|l| l.0).collect::<Vec<_>>(), [4, 5, 6]);
        assert!(lanes
            .iter()
            .all(|&(_, lo, s)| lo.is_finite() && s.is_finite() && s > 0.0));
        let kept = filtered(&rows, &no_codes(&rows));
        assert!(kept.len() < rows.len() / 2, "{}", kept.len());
    }

    #[test]
    fn the_prefilter_skips_inputs_that_fit_the_head() {
        // Row 0 dominates every other row.
        let mut rows = lcg_rows(HEAD + 1, 3, 5);
        rows[0] = vec![1_000.0; 3];
        let head = &rows[..HEAD];
        assert_eq!(
            filtered(head, &no_codes(head)),
            (0..HEAD).collect::<Vec<_>>()
        );
        assert_eq!(filtered(&rows, &no_codes(&rows)), [0]);
    }

    #[test]
    fn a_sample_that_survives_returns_the_input_whole() {
        // The first n/16 rows are an antichain that the filter rows
        // cannot touch; row 30 dominates the whole bulk behind it.
        let n = 1_000;
        let front = (0..n / SAMPLE).map(|j| vec![j as f64, (61 - j) as f64, 100.0]);
        let bulk = lcg_rows(n - n / SAMPLE, 3, 9).into_iter();
        let rows: Vec<Vec<f64>> = front
            .chain(bulk.map(|r| r.iter().map(|k| k % 10.0).collect()))
            .collect();
        assert_eq!(
            filtered(&rows, &no_codes(&rows)),
            (0..n).collect::<Vec<_>>()
        );
        // Without the front the same bulk is filtered.
        let bulk = &rows[n / SAMPLE..];
        assert!(filtered(bulk, &no_codes(bulk)).len() < bulk.len() / 2);
    }

    /// A deterministic generator: `below(b)` draws from `0..b`.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = (self.0)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) % bound as u64) as usize
        }
    }

    /// A random pre-filter input, on both sides of [`HEAD`], of 1–6 lanes
    /// with or without codes, in one of three styles:
    /// - *levels*: each lane takes one of 1 (constant), 2, 3, 8 or 64
    ///   levels, some lanes with −∞ and +∞ for the extreme levels; a code
    ///   is its level and a random sign, so equal keys carry other codes
    ///   (AROUND's −5 and 5); a fifth of the rows repeat an earlier row;
    /// - *antichain*: the same, with lane 0 mirroring lane 1, so most rows
    ///   survive and the sample bails;
    /// - *cyclic*: `m ≤ 64` mutually incomparable rows at the end, and
    ///   before them rows that each only the `(i mod m)`-th one dominates:
    ///   the eliminating filter row changes on every row.
    fn random_input(rng: &mut Lcg) -> (Vec<Vec<f64>>, Vec<Vec<u64>>) {
        let n = match rng.below(4) {
            0 => 1 + rng.below(HEAD),
            1 => HEAD + 1,
            _ => HEAD + 1 + rng.below(1_500),
        };
        let (dims, with_codes) = (1 + rng.below(6), rng.below(2) == 1);
        let style = if dims == 1 { 0 } else { rng.below(3) };
        let mut rows: Vec<(Vec<f64>, Vec<u64>)> = Vec::with_capacity(n);
        if style == 2 {
            let m = (2 + rng.below(63)).min(n);
            for i in 0..n {
                let (j, top) = (i % m, i >= n - m);
                let mut keys = vec![(2 * j) as f64, (2 * (m - j)) as f64];
                if top {
                    keys.iter_mut().for_each(|k| *k += 1.0);
                }
                let rest = |_| if top { 1_000.0 } else { rng.below(4) as f64 };
                keys.extend((2..dims).map(rest));
                let codes = keys.iter().map(|k| k.to_bits()).collect();
                rows.push((keys, codes));
            }
        } else {
            let levels: Vec<Vec<f64>> = (0..dims)
                .map(|_| {
                    let count = [1, 2, 3, 8, 64][rng.below(5)];
                    let mut values: Vec<f64> = (0..count).map(|l| l as f64).collect();
                    if rng.below(3) == 0 {
                        values[0] = f64::NEG_INFINITY;
                        if count > 1 {
                            values[count - 1] = f64::INFINITY;
                        }
                    }
                    values
                })
                .collect();
            for i in 0..n {
                if i > 0 && rng.below(5) == 0 {
                    let earlier = rows[rng.below(i)].clone();
                    rows.push(earlier);
                    continue;
                }
                let mut at: Vec<usize> = levels.iter().map(|v| rng.below(v.len())).collect();
                if style == 1 {
                    let top = levels[0].len().min(levels[1].len()) - 1;
                    at[1] = at[1].min(top);
                    at[0] = top - at[1];
                }
                let keys = at.iter().zip(&levels).map(|(&l, v)| v[l]).collect();
                let codes = at.iter().map(|&l| 2 * l as u64 + rng.below(2) as u64);
                rows.push((keys, codes.collect()));
            }
        }
        rows.into_iter()
            .map(|(keys, codes)| (keys, if with_codes { codes } else { Vec::new() }))
            .unzip()
    }

    /// The reference: what a sweep over the same filter rows keeps, with
    /// the same bail; whether it bailed; and how often the first filter
    /// row to dominate changed from one eliminated row to the next.
    fn sweep_only(rows: &[Vec<f64>], eqs: &[Vec<u64>]) -> (Vec<usize>, bool, usize) {
        let n = rows.len();
        if n <= HEAD {
            return ((0..n).collect(), false, 0);
        }
        let gather = |i: usize, k: &mut [f64], e: &mut [u64]| {
            k.copy_from_slice(&rows[i]);
            e.copy_from_slice(&eqs[i]);
        };
        let filter = filter_rows(n, &spans_of(rows), eqs[0].len(), &gather);
        let (mut flags, sample) = ([0; MAX_BLOCK], n / SAMPLE);
        let (mut kept, mut by, mut changes) = (Vec::new(), None, 0);
        for i in 0..n {
            if i == sample && 4 * (sample - kept.len()) < sample {
                return ((0..n).collect(), true, changes);
            }
            match filter.dominates(&mut flags, &rows[i], &eqs[i]) {
                Some(j) => {
                    changes += usize::from(by.is_some_and(|b| b != j));
                    by = Some(j);
                }
                None => kept.push(i),
            }
        }
        (kept, false, changes)
    }

    #[test]
    fn the_prefilter_keeps_exactly_what_a_sweep_only_pass_keeps() {
        let mut rng = Lcg(38);
        let (mut small, mut bailed, mut dropped, mut changing) = (0, 0, 0, 0);
        for case in 0..400 {
            let (rows, eqs) = random_input(&mut rng);
            let n = rows.len();
            let got = prefilter(n, &spans_of(&rows), eqs[0].len(), |i, k, e| {
                k.copy_from_slice(&rows[i]);
                e.copy_from_slice(&eqs[i]);
            });
            let (want, bails, changes) = sweep_only(&rows, &eqs);
            let shape = (n, rows[0].len(), eqs[0].len());
            assert_eq!(got, want, "case {case}: (rows, lanes, codes) = {shape:?}");
            small += usize::from(n <= HEAD);
            bailed += usize::from(bails);
            dropped += usize::from(want.len() < n);
            changing += usize::from(2 * changes > n);
        }
        let seen = (small, bailed, dropped, changing);
        assert!(
            small > 0 && bailed > 0 && dropped > 0 && changing > 0,
            "{seen:?}"
        );
    }
}
