//! # pref-bench — experiment reproduction
//!
//! Shared setup code for the two binaries — `repro`, which regenerates
//! the paper's experiments (its `main` lists the sections: Examples
//! 1–11, laws, decomposition, hierarchy, and the `x1`–`x4`
//! measurements), and `cells`, the per-cell `skyline-scan` table — and
//! for `perfbench`, which imports [`skyline_pref`], [`around_pref`] and
//! [`loadgen::interleave_sessions`].

pub mod loadgen;

use pref_core::prelude::*;
use pref_core::term::Pref;
use pref_relation::Relation;
use pref_workload::synthetic::{self, Distribution};

/// A skyline-shaped preference over the synthetic `d0 … d{d-1}` columns:
/// maximise every dimension.
pub fn skyline_pref(d: usize) -> Pref {
    Pref::pareto_all((0..d).map(|i| highest(format!("d{i}").as_str())).collect()).expect("d >= 1")
}

/// An AROUND-flavoured Pareto preference over the synthetic columns —
/// scored but *not* skyline-shaped (exercises SFS/BNL rather than D&C).
pub fn around_pref(d: usize) -> Pref {
    Pref::pareto_all(
        (0..d)
            .map(|i| around(format!("d{i}").as_str(), 0.5))
            .collect(),
    )
    .expect("d >= 1")
}

/// Synthetic table shorthand.
pub fn table(n: usize, d: usize, dist: Distribution, seed: u64) -> Relation {
    synthetic::table(n, d, dist, seed)
}

/// Format a row of fixed-width cells for the report tables.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Wall-clock one invocation in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefs_compile_against_tables() {
        let r = table(50, 3, Distribution::Independent, 1);
        for p in [skyline_pref(3), around_pref(3)] {
            assert!(!pref_query::bmo::sigma_naive_generic(&p, &r)
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn row_formats_fixed_width() {
        let s = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(s, "  a    bb");
    }
}
