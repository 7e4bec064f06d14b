//! Efficient BMO evaluation algorithms.
//!
//! The paper defers efficiency but points at the skyline literature for
//! the restricted Pareto case ("efficient evaluation algorithms have been
//! given in \[KLP75\], \[BKS01\] and \[TEO01\]", §6.1). This module holds
//! the kernels behind [`Engine`](crate::Engine): each is handed a
//! compiled term and its dominance backend (a score matrix or the term
//! walk) and neither compiles nor materializes anything itself.
//!
//! * [`dnc::try_dnc_compiled`] — divide & conquer maxima (\[KLP75\]) for
//!   `SKYLINE OF` shaped terms (Pareto over LOWEST/HIGHEST chains), the
//!   planner's choice for them;
//! * [`sfs::try_sfs_with`] — Sort-Filter-Skyline: presort by the key
//!   sum (or a monotone utility), then a single filtering pass against
//!   accepted maxima; the planner's choice for every other flat key order
//!   and, behind a Prop. 10 head split, for a prioritisation headed by one
//!   key lane;
//! * [`bnl::bnl_matrix`] / [`bnl::bnl_generic`] — Block-Nested-Loops
//!   (\[BKS01\]), correct for *any* strict partial order: the planner's
//!   choice for orders without key lanes;
//!
//! SFS's filter pass and D&C's merge (and D&C's fallback on a slice its
//! first dimension cannot split) ask the same question — does any
//! accepted row dominate this one? — of one private early-exit window
//! (`window`): a flat head of the first 256 accepted rows, then
//! partitions by a bit mask against the head's median, of which a
//! candidate sweeps only those whose mask is a subset of its own. The
//! D&C merge asks it weakly (`≥` on lanes 1..d): its split already makes
//! every upper row strictly better on dim0. Ahead of SFS's presort and
//! D&C's split (d ≥ 4; D&C's d = 3 is a staircase sweep), the same
//! module's linear pre-filter drops every row that one of the 64 rows of
//! best normalised key sum dominates, so the n log n work sees only the
//! survivors.
//!
//! All algorithms return sorted row-index vectors and are
//! property-checked against the naive oracle.

pub mod bnl;
pub mod dnc;
pub mod sfs;
mod window;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmo::sigma_naive_generic;
    use crate::{Algorithm, Engine, Optimizer, QueryError};
    use pref_core::eval::{CompiledPref, ScoreMatrix};
    use pref_core::prelude::*;
    use pref_relation::{rel, Relation};

    const INF: f64 = f64::INFINITY;

    /// Every kernel on both backends, and the engine (unforced and forced
    /// to each algorithm), against Def. 15. SFS must answer on a matrix
    /// whenever the term has key lanes (a flat key order or a single-lane
    /// head, utility or not) and may refuse only where it has neither
    /// lanes nor a utility.
    fn agree(p: &Pref, r: &Relation) {
        let oracle = sigma_naive_generic(p, r).unwrap();
        let c = CompiledPref::compile(p, r.schema()).unwrap();
        let m = c.score_matrix(r);
        assert_eq!(bnl::bnl_generic(&c, r), oracle, "generic BNL, {p}");
        if let Some(m) = &m {
            assert_eq!(bnl::bnl_matrix(m), oracle, "BNL, {p}");
        }
        let sfs = sfs::try_sfs_with(&c, r, m.as_ref());
        assert!(sfs.as_ref().is_none_or(|rows| *rows == oracle), "SFS, {p}");
        let lanes = m.is_some() && c.lane_shape().is_some();
        assert!(
            sfs.is_some() || !lanes,
            "SFS refused a term with lanes, {p}"
        );
        let generic = sfs::try_sfs_with::<ScoreMatrix>(&c, r, None);
        assert!(
            generic.is_none_or(|rows| rows == oracle),
            "generic SFS, {p}"
        );
        if let Some(rows) = dnc::try_dnc_compiled(&c, r) {
            assert_eq!(rows, oracle, "D&C, {p}");
        }
        let unforced = Engine::new().prepare(p, r.schema()).unwrap();
        assert_eq!(unforced.execute(r).unwrap().rows(), oracle, "engine, {p}");
        for a in [
            Algorithm::Bnl,
            Algorithm::BnlParallel,
            Algorithm::Sfs,
            Algorithm::Dnc,
        ] {
            let engine = Engine::with_optimizer(Optimizer::new().with_algorithm(a));
            match engine.prepare(p, r.schema()).and_then(|q| q.execute(r)) {
                Ok(out) => assert_eq!(out.rows(), oracle, "forced {a}, {p}"),
                Err(e) => assert!(
                    matches!(e, QueryError::AlgorithmMismatch { .. })
                        && (a == Algorithm::Dnc || sfs.is_none()),
                    "forced {a}, {p}: {e}"
                ),
            }
        }
    }

    #[test]
    fn infinite_keys_agree_with_the_oracle_through_every_algorithm() {
        // `+∞ + −∞` is a NaN key sum, and −∞ is a legal best dim1 of the
        // 2-d sweep.
        let r = rel! { ("a": Float, "b": Float); (5.0, -INF), (INF, -INF) };
        agree(&highest("a").pareto(highest("b")), &r);
        let r = rel! {
            ("a": Float, "b": Float, "c": Float);
            (5.0, -INF, 1.0), (INF, -INF, 1.0),
        };
        let p = highest("a").pareto(highest("b")).pareto(highest("c"));
        agree(&p, &r);
        // A constant first column sends D&C through its sum-sorted
        // filter: the last row dominates every other one.
        let mut r = Relation::empty(r.schema().clone());
        for b in (0..40).map(f64::from).chain([INF]) {
            r.push_values(vec![1.0.into(), b.into(), (-INF).into()])
                .unwrap();
        }
        agree(&p, &r);
        // Probe-free SFS: the same rows under a POS lane (no utility), as
        // a flat Pareto operand and as a single-lane head over the tail.
        let is_one = pos("a", [1.0]);
        agree(
            &is_one.clone().pareto(highest("b")).pareto(highest("c")),
            &r,
        );
        agree(&is_one.prior(highest("b").pareto(highest("c"))), &r);
        agree(&highest("c").prior(highest("b")), &r);
        // The dual has no key lanes: SFS walks the term, whose utility of
        // (+∞, −∞) is NaN.
        let r = rel! { ("a": Float, "b": Float); (INF, -INF), (INF, 0.0) };
        agree(&lowest("a").pareto(lowest("b")).dual(), &r);
    }
}
