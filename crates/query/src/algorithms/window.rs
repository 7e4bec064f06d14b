//! The grow-only window of *accepted* rows under SFS's filter pass and
//! the D&C merge, and the one question both ask of it: does any accepted
//! row dominate this candidate?
//!
//! Both callers insert likely dominators first (SFS by descending
//! utility, the merge by descending coordinate sum), so the sweep runs
//! over growing blocks in insertion order and stops after the first block
//! that holds a dominator; inside a block it is the batch BNL window's
//! branch-free per-lane flag accumulation.

/// A sweep's first block and the cap its doubling stops at. Measured on
/// the 18 `skyline-scan` cells at 25 000 rows: first ∈ {8, 16, 32, 64} ×
/// cap ∈ {128 … whole window} all land within run-to-run noise of one
/// another (250–275 ms a pass); 16/256 keeps the flag scratch at 2 KB.
const FIRST_BLOCK: usize = 16;
const MAX_BLOCK: usize = 256;

/// Structure-of-arrays copies of the accepted rows' dominance keys and
/// equality codes (equal codes imply equal keys, never the converse).
/// Value-injective keys need no codes: such callers pass empty `eqs`.
pub(super) struct AcceptedWindow {
    /// `keys[d][j]`: dimension `d` of the `j`-th accepted row.
    keys: Vec<Vec<f64>>,
    eqs: Vec<Vec<u64>>,
    flags: [u64; MAX_BLOCK],
}

impl AcceptedWindow {
    pub(super) fn new(dims: usize) -> Self {
        AcceptedWindow {
            keys: vec![Vec::new(); dims],
            eqs: vec![Vec::new(); dims],
            flags: [0; MAX_BLOCK],
        }
    }

    /// Accept a row: it joins the end of every lane.
    pub(super) fn push(&mut self, keys: &[f64], eqs: &[u64]) {
        (self.keys.iter_mut().zip(keys)).for_each(|(lane, &k)| lane.push(k));
        (self.eqs.iter_mut().zip(eqs)).for_each(|(lane, &e)| lane.push(e));
    }

    /// Does an accepted row dominate the candidate (Def. 8)? Two flag
    /// bits per member: strictly better somewhere (bit 0), and blocked
    /// somewhere — not better there and another value (bit 1); it
    /// dominates iff it ends a block as `01`. Flags are as wide as the
    /// lanes, so the loops vectorize unnarrowed (`u8`: 2× slower a pass).
    pub(super) fn dominates(&mut self, keys: &[f64], eqs: &[u64]) -> bool {
        let len = self.keys.first().map_or(0, Vec::len);
        let (mut lo, mut block) = (0, FIRST_BLOCK);
        while lo < len {
            let hi = (lo + block).min(len);
            let flags = &mut self.flags[..hi - lo];
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
            if flags.contains(&0b01) {
                return true;
            }
            lo = hi;
            block = (2 * block).min(MAX_BLOCK);
        }
        false
    }
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

    /// The unblocked reference: every member, every dimension.
    fn full_sweep(w: &AcceptedWindow, keys: &[f64], eqs: &[u64]) -> bool {
        (0..w.keys[0].len()).any(|j| {
            let differs = |d: usize| match eqs.get(d) {
                Some(&e) => w.eqs[d][j] != e,
                None => w.keys[d][j] != keys[d],
            };
            let dims = 0..keys.len();
            dims.clone().any(|d| keys[d] < w.keys[d][j])
                && dims.clone().all(|d| keys[d] < w.keys[d][j] || !differs(d))
        })
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
}
