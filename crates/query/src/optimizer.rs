//! The preference query optimizer.
//!
//! "Building efficient preference query optimizers, which can cope with
//! the intrinsic non-monotonic nature of preference queries" is the
//! paper's stated next step; this module implements three levers:
//!
//! 1. **algebraic rewriting** — `simplify` applies the laws of Prop. 2–4;
//!    by Prop. 7 (`P1 ≡ P2 ⟹ σ[P1](R) = σ[P2](R)`) this never changes
//!    results;
//! 2. **algorithm selection** — a shape rule ([`crate::plan`]): D&C for
//!    `SKYLINE OF` shapes, SFS for every other flat key order and, behind
//!    a Prop. 10 head split, for a prioritisation headed by one key lane,
//!    BNL for orders without key lanes; parallel BNL, the Prop. 11
//!    cascade and decomposition (Prop. 8–12) on request only;
//! 3. **dominance-backend selection** — the term is compiled once, a
//!    [`ScoreMatrix`](pref_core::eval::ScoreMatrix) is materialized once when the term is
//!    score-representable, and every downstream algorithm runs its
//!    pairwise tests on that columnar backend instead of term-tree walks.
//!
//! [`Optimizer`] itself is the engine's configuration struct; queries
//! run through [`Engine::prepare`](crate::engine::Engine::prepare) →
//! [`Prepared::execute`](crate::engine::Prepared::execute), and every
//! execution returns an [`Explain`] recording what was chosen and why —
//! the `EXPLAIN` of Preference SQL.

use std::fmt;

use pref_core::eval::{CompiledPref, MatrixWindow};
use pref_core::term::Pref;
use pref_relation::{Lineage, Relation, Value};

use crate::algorithms::{bnl, dnc, sfs};
use crate::bmo::{sigma_naive_generic_compiled, sigma_naive_matrix};
use crate::engine::Engine;
use crate::error::QueryError;
use crate::plan::RelationPlan;

/// Evaluation strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Exhaustive O(n²) reference evaluation.
    Naive,
    /// Block-Nested-Loops (any strict partial order).
    Bnl,
    /// Chunked parallel BNL (forced only: the planner never picks it).
    BnlParallel,
    /// Divide & conquer maxima (Pareto of chains).
    Dnc,
    /// Sort-Filter-Skyline: key-lane window (flat key orders, Prop. 10
    /// head split) or a monotone utility.
    Sfs,
    /// Cascade of chain prefix then tail (Prop. 11; forced only — the
    /// head split under [`Algorithm::Sfs`] subsumes it).
    Cascade,
    /// Decomposition theorems (Prop. 8–12).
    Decomposed,
    /// No algorithm at all: the planner proved the winnow redundant from
    /// the relation's integrity constraints (`σ[P](R) = R`), so the
    /// engine answers with every row. Only the planner selects this.
    Elided,
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Algorithm::Naive => "naive",
            Algorithm::Bnl => "block-nested-loops",
            Algorithm::BnlParallel => "parallel block-nested-loops",
            Algorithm::Dnc => "divide-and-conquer",
            Algorithm::Sfs => "sort-filter-skyline",
            Algorithm::Cascade => "chain cascade (Prop. 11)",
            Algorithm::Decomposed => "decomposition (Prop. 8-12)",
            Algorithm::Elided => "none (winnow eliminated by integrity constraints)",
        };
        f.write_str(s)
    }
}

/// Outcome of the engine's score-matrix cache for one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from a matrix cached for this `(generation, fingerprint)`.
    Hit,
    /// Served from a matrix cached for this relation's *lineage* —
    /// `(base generation, predicate fingerprint, term fingerprint)`. The
    /// relation itself is a fresh derivation (fresh generation), but it
    /// was recognized as a re-derivation of a subset the engine has
    /// already materialized.
    DerivedHit,
    /// Served by *windowing* the cached whole-base matrix onto this
    /// row-id view (`(base generation, term fingerprint)` plus the
    /// view's index vector). The subset itself was never materialized —
    /// not even its predicate has been seen before — but every row of
    /// the view exists in the base, so the base's matrix answers through
    /// one index indirection
    /// ([`MatrixWindow`]). This is the
    /// warm path for *brand-new* WHERE predicates over a warmed base.
    WindowHit,
    /// Rebuilt *incrementally*: the relation grew since the cached matrix
    /// was built, and its [`Delta`](pref_relation::Delta) proved the old
    /// rows an unchanged prefix, so the build copied the cached lanes and
    /// encoded only the appended rows. Not a warm serve — keys *were*
    /// computed — but the per-value work was proportional to the
    /// mutation, not the relation.
    ShardHit,
    /// Served by *maintaining* a cached BMO result across a mutation:
    /// the relation's [`Delta`](pref_relation::Delta) proved the old
    /// result rows untouched, so the engine classified only the
    /// changed rows against the previous skyline (a dominated append
    /// is O(|result|) dominance tests; a dominating append prunes and
    /// splices) instead of re-running the algorithm over the relation
    /// — no matrix walk at all. The cheapest non-identical-generation
    /// route: work proportional to the *mutation*, bounded by the
    /// *result*, independent of the relation.
    MaintainedHit,
    /// Built fresh (and cached, when an engine with caching ran it).
    Miss,
    /// No matrix was involved: the algorithm doesn't use one, the term
    /// doesn't materialize on this input, caching is disabled, or the
    /// call went through a plan-only path.
    Bypass,
}

impl CacheStatus {
    /// Was the matrix served without a rebuild (any cache route)?
    pub fn is_warm(&self) -> bool {
        matches!(
            self,
            CacheStatus::Hit | CacheStatus::DerivedHit | CacheStatus::WindowHit
        )
    }
}

impl fmt::Display for CacheStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheStatus::Hit => "hit",
            CacheStatus::DerivedHit => "derived-hit",
            CacheStatus::WindowHit => "window-hit (base matrix via row-id indirection)",
            CacheStatus::ShardHit => "shard-hit (incremental rebuild: only appended rows encoded)",
            CacheStatus::MaintainedHit => {
                "maintained-hit (previous result patched against the delta)"
            }
            CacheStatus::Miss => "miss",
            CacheStatus::Bypass => "bypass",
        })
    }
}

/// What the optimizer did for one query.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The term as submitted.
    pub original: String,
    /// The term after algebraic simplification.
    pub simplified: String,
    /// Whether rewriting changed the term.
    pub rewritten: bool,
    /// The plan this report was produced from: the derivation (algebra
    /// laws fired with before/after terms, semantic rewrites, the
    /// constraints they used) and the shape rule's candidates, shared
    /// with the [`Prepared`](crate::engine::Prepared) that made it, plus
    /// the row count and result estimate of the relation it ran on. Only
    /// rendered when [`Explain::lines`] is asked for.
    pub plan: RelationPlan,
    /// The evaluation strategy that ran (the plan's choice, or the
    /// fallback when the chosen algorithm did not apply to the input).
    pub algorithm: Algorithm,
    /// Whether dominance tests ran on a materialized score matrix
    /// (`false` = generic term-walk backend).
    pub materialized: bool,
    /// Whether the matrix ran EXPLICIT sub-terms on the reachability
    /// bitset backend (a distinct backend from pure `f64` keys).
    pub explicit_bitsets: bool,
    /// Score-matrix cache outcome of this execution.
    pub cache: CacheStatus,
    /// The relation generation the query ran against (pairs with
    /// `cache` to make amortization assertable).
    pub generation: u64,
    /// The lineage of the relation the query ran against, when it was a
    /// derived view ([`pref_relation::Relation::lineage`]) — the key a
    /// [`CacheStatus::DerivedHit`] resolved, reported even on misses so
    /// callers can see what later executions will be able to reuse.
    pub lineage: Option<Lineage>,
    /// When a front end produced the executed term by substituting
    /// parameter values into a statement (Preference SQL's `$n`): that
    /// statement's stable fingerprint, identical across bindings. The
    /// engine leaves it `None`; the front end stamps it on the report.
    pub shape_fingerprint: Option<u64>,
    /// The parameter values of that execution (`binding[0] = $1`),
    /// stamped beside `shape_fingerprint`.
    pub binding: Option<Vec<Value>>,
    /// Human-readable selection rationale.
    pub reason: String,
}

impl Explain {
    /// The canonical serialization, one element per report line. This is
    /// the *single* rendering of an explanation: [`Explain`]'s `Display`
    /// joins these lines, and the server's `EXPLAIN` verb sends them as
    /// the reply body verbatim — the Rust view and the wire view cannot
    /// drift because there is only one serializer (a parity test in the
    /// server crate pins this).
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.push(format!("preference : {}", self.original));
        if self.rewritten {
            out.push(format!("rewritten  : {}", self.simplified));
        }
        // The planner's derivation: laws fired, constraints used, the
        // result estimate and the rule's candidates.
        let plan = &self.plan.plan;
        for s in &plan.steps {
            if s.before == s.after {
                out.push(format!("{:<11}: {}", s.kind, s.rule));
            } else {
                out.push(format!(
                    "{:<11}: {}: {} ⇒ {}",
                    s.kind, s.rule, s.before, s.after
                ));
            }
        }
        for c in &plan.constraints_used {
            out.push(format!("constraint : {c}"));
        }
        out.push(format!(
            "stats      : {} rows at generation {}, est. result {:.1} rows (Def. 18)",
            self.plan.rows, self.plan.generation, self.plan.estimated_result
        ));
        for e in &plan.candidates {
            let verdict = if e.eligible { "eligible" } else { "ineligible" };
            let chosen = if e.eligible && e.algorithm == plan.algorithm {
                "  ← chosen"
            } else {
                ""
            };
            out.push(format!(
                "rule       : {} {verdict} ({}){chosen}",
                e.algorithm, e.detail
            ));
        }
        out.push(format!("algorithm  : {}", self.algorithm));
        out.push(format!(
            "dominance  : {}",
            if self.algorithm == Algorithm::Elided {
                "none (σ[P](R) = R by integrity constraints; zero dominance tests)"
            } else if self.materialized && self.explicit_bitsets {
                "score-matrix (columnar keys + EXPLICIT reachability bitsets)"
            } else if self.materialized {
                "score-matrix (columnar keys)"
            } else if self.algorithm == Algorithm::Dnc {
                "columnar skyline vectors"
            } else if matches!(self.algorithm, Algorithm::Cascade | Algorithm::Decomposed) {
                // The decomposition evaluator picks a backend per
                // sub-query (its inner BNL calls still materialize when
                // the sub-term allows); no single top-level label applies.
                "per-subquery (decomposed evaluation)"
            } else {
                "generic term-walk"
            }
        ));
        if let (Some(fp), Some(binding)) = (self.shape_fingerprint, &self.binding) {
            let values: Vec<String> = binding.iter().map(Value::to_string).collect();
            out.push(format!(
                "shape      : {fp:#018x} bound [{}]",
                values.join(", ")
            ));
        }
        match self.lineage {
            Some(l) => out.push(format!(
                "cache      : {} (relation generation {}; derived from base \
                 generation {} via predicate {:#018x})",
                self.cache,
                self.generation,
                l.base_generation(),
                l.predicate()
            )),
            None => out.push(format!(
                "cache      : {} (relation generation {})",
                self.cache, self.generation
            )),
        }
        out.push(format!("reason     : {}", self.reason));
        out
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.lines().join("\n"))
    }
}

/// The engine's configuration
/// ([`Engine::with_optimizer`](crate::engine::Engine::with_optimizer)).
#[derive(Debug, Clone, Default)]
pub struct Optimizer {
    /// Force a specific algorithm (skips selection, not rewriting).
    pub force: Option<Algorithm>,
    /// Number of worker threads for parallel BNL, which runs only when
    /// forced (matrix builds run on the calling thread). `0` = auto:
    /// [`std::thread::available_parallelism`], resolved once by
    /// [`Engine::with_optimizer`](crate::engine::Engine::with_optimizer)
    /// — [`Engine::optimizer`](crate::engine::Engine::optimizer) always
    /// reports a concrete count.
    pub threads: usize,
    /// Skip score-matrix materialization (forces the term-walk backend)
    /// for the query and for every sub-query of the decomposition
    /// evaluator and the grouped and k-best operators, which all fetch
    /// their matrix through
    /// [`Prepared::matrix`](crate::engine::Prepared::matrix); benchmark
    /// ablation and debugging knob.
    pub no_materialize: bool,
}

impl Optimizer {
    pub fn new() -> Self {
        Optimizer::default()
    }

    /// Force a specific evaluation algorithm.
    pub fn with_algorithm(mut self, a: Algorithm) -> Self {
        self.force = Some(a);
        self
    }

    /// Set the worker-thread count (`0` = auto-detect).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Disable the score-matrix backend (ablation knob).
    pub fn without_materialization(mut self) -> Self {
        self.no_materialize = true;
        self
    }

    /// Does `algorithm` run its *top-level* pairwise dominance tests on
    /// a score matrix? D&C builds its own columnar skyline vectors, and
    /// the cascade/decomposition evaluators recurse into sub-queries
    /// (whose inner BNL calls materialize their own sub-matrices when
    /// possible) — no whole-relation matrix is built for any of them.
    pub(crate) fn uses_matrix(algorithm: Algorithm) -> bool {
        matches!(
            algorithm,
            Algorithm::Naive | Algorithm::Bnl | Algorithm::BnlParallel | Algorithm::Sfs
        )
    }
}

/// Run the selected algorithm over an already-compiled term and an
/// optionally materialized matrix — the dispatch behind
/// [`Prepared::execute`](crate::engine::Prepared::execute). Returns the
/// result rows plus the (possibly fallback-adjusted) algorithm and
/// rationale.
pub(crate) fn run_algorithm(
    engine: &Engine,
    simplified: &Pref,
    c: &CompiledPref,
    matrix: Option<&MatrixWindow>,
    selection: (Algorithm, String),
    r: &Relation,
) -> Result<(Vec<usize>, Algorithm, String), QueryError> {
    let opt = engine.optimizer();
    let (mut algorithm, mut reason) = selection;
    let rows = match algorithm {
        Algorithm::Naive => match matrix {
            Some(m) => sigma_naive_matrix(m),
            None => sigma_naive_generic_compiled(c, r),
        },
        Algorithm::Bnl => match matrix {
            Some(m) => bnl::bnl_matrix(m),
            None => bnl::bnl_generic(c, r),
        },
        Algorithm::BnlParallel => {
            let threads = opt.threads.max(2);
            match matrix {
                Some(m) => bnl::bnl_parallel_matrix(m, threads),
                None => bnl::bnl_parallel_generic(c, r, threads),
            }
        }
        Algorithm::Dnc => {
            // Selection checks the term's *shape*, but evaluability is
            // per-value (a NULL in a chain column has no embedding), so
            // the checked entry decides.
            match dnc::try_dnc_compiled(c, r) {
                Some(rows) => rows,
                None if opt.force.is_some() => {
                    return Err(QueryError::AlgorithmMismatch {
                        algorithm: "divide & conquer",
                        term: simplified.to_string(),
                        reason: "not a Pareto accumulation of LOWEST/HIGHEST chains \
                                 over numerically embeddable columns",
                    });
                }
                None => {
                    algorithm = Algorithm::Bnl;
                    reason = "chain column not numerically embeddable on this input: \
                              fell back to block-nested-loops"
                        .to_string();
                    bnl::bnl_generic(c, r)
                }
            }
        }
        Algorithm::Sfs => {
            // Utility is per-row (a NULL under a scored chain has none),
            // so the checked entry decides; a first-row probe would miss
            // later rows.
            let head = match simplified {
                Pref::Prior(operands) if matrix.is_none() => operands.first(),
                _ => None,
            };
            match (sfs::try_sfs_with(c, r, matrix), head) {
                (Some(rows), _) => rows,
                // No matrix and no utility: Def. 16's anti-chain head
                // still splits the rows, by the term walk.
                (None, Some(Pref::Antichain(attrs))) => {
                    reason = "no matrix and no utility on this input: one \
                              block-nested-loops window per group of the anti-chain head"
                        .to_string();
                    sfs::group_walk(c, r, &r.schema().resolve(attrs)?)
                }
                // Forced by the caller: surface the mismatch.
                (None, _) if opt.force.is_some() => {
                    return Err(QueryError::AlgorithmMismatch {
                        algorithm: "sort-filter-skyline",
                        term: simplified.to_string(),
                        reason: "preference admits no monotone utility on this input",
                    });
                }
                // Auto-selected from a first-row probe: some later row
                // lacks a utility — fall back to BNL rather than failing
                // a valid query.
                (None, _) => {
                    algorithm = Algorithm::Bnl;
                    reason = "utility incomplete on this input: fell back to \
                              block-nested-loops"
                        .to_string();
                    match matrix {
                        Some(m) => bnl::bnl_matrix(m),
                        None => bnl::bnl_generic(c, r),
                    }
                }
            }
        }
        Algorithm::Cascade | Algorithm::Decomposed => engine.sigma_decomposed(simplified, r)?,
        // Only the planner may elide the winnow — it holds the
        // constraint-registry proof that σ[P](R) = R. A caller forcing
        // it would silently get every row on arbitrary preferences.
        Algorithm::Elided => {
            return Err(QueryError::AlgorithmMismatch {
                algorithm: "elided winnow",
                term: simplified.to_string(),
                reason: "only the planner may elide a winnow (requires a \
                         constraint-registry redundancy proof)",
            });
        }
    };
    Ok((rows, algorithm, reason))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_core::prelude::*;
    use pref_relation::rel;

    /// One `prepare → execute` on a fresh engine configured by `opt`.
    fn run(opt: Optimizer, p: &Pref, r: &Relation) -> Result<(Vec<usize>, Explain), QueryError> {
        Ok(Engine::with_optimizer(opt)
            .prepare(p, r.schema())?
            .execute(r)?
            .into_parts())
    }

    fn sample() -> Relation {
        rel! {
            ("a": Int, "b": Int, "c": Str);
            (1, 9, "x"), (2, 8, "y"), (3, 7, "x"), (9, 1, "z"),
            (5, 5, "x"), (6, 6, "y"), (1, 9, "x"), (0, 10, "z"),
        }
    }

    #[test]
    fn all_algorithms_agree() {
        let r = sample();
        let prefs = vec![
            lowest("a").pareto(highest("b")),
            around("a", 3).pareto(lowest("b")),
            pos("c", ["x"]).prior(lowest("a")),
            neg("c", ["z"]).pareto(pos("c", ["x"])),
        ];
        for p in prefs {
            let baseline = crate::bmo::sigma_naive_generic(&p, &r).unwrap();
            for algo in [
                Algorithm::Naive,
                Algorithm::Bnl,
                Algorithm::BnlParallel,
                Algorithm::Decomposed,
            ] {
                for no_materialize in [false, true] {
                    let opt = Optimizer {
                        force: Some(algo),
                        threads: 2,
                        no_materialize,
                    };
                    assert_eq!(
                        run(opt, &p, &r).unwrap().0,
                        baseline,
                        "{algo} (no_materialize={no_materialize}) diverged on {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn selection_picks_dnc_for_skylines() {
        let r = sample();
        let p = lowest("a").pareto(highest("b"));
        let (_, ex) = run(Optimizer::new(), &p, &r).unwrap();
        assert_eq!(ex.algorithm, Algorithm::Dnc);
        // D&C runs on its own columnar skyline vectors; no score matrix
        // is (or should be) materialized for it.
        assert!(!ex.materialized);
        assert!(ex.to_string().contains("columnar skyline vectors"));
    }

    #[test]
    fn dnc_falls_back_on_non_embeddable_chain_values() {
        // chain_dims is shape-only; a NULL in a chain column must not be
        // scored -∞ (that would silently drop an incomparable maximum).
        let mut r = rel! { ("a": Int, "b": Int); (1, 9) };
        r.push(pref_relation::Tuple::new(vec![
            pref_relation::Value::Null,
            pref_relation::Value::from(5),
        ]))
        .unwrap();
        let p = lowest("a").pareto(highest("b"));
        let oracle = crate::bmo::sigma_naive_generic(&p, &r).unwrap();
        assert_eq!(
            oracle,
            vec![0, 1],
            "NULL row is incomparable, stays maximal"
        );

        let (rows, ex) = run(Optimizer::new(), &p, &r).unwrap();
        assert_eq!(rows, oracle);
        assert_eq!(ex.algorithm, Algorithm::Bnl);
        assert!(ex.reason.contains("fell back"));

        let forced = Optimizer::new().with_algorithm(Algorithm::Dnc);
        assert!(matches!(
            run(forced, &p, &r),
            Err(QueryError::AlgorithmMismatch { .. })
        ));
    }

    #[test]
    fn sfs_handles_partial_utilities_without_panicking() {
        // Row 0 has a utility but the NULL row has none: a first-row
        // probe alone would let SFS panic mid-run.
        let mut r = rel! { ("a": Int); (1,), (2,) };
        r.push_values(vec![pref_relation::Value::Null]).unwrap();

        // Forced: clean mismatch error.
        let forced = Optimizer::new().with_algorithm(Algorithm::Sfs);
        assert!(matches!(
            run(forced, &lowest("a"), &r),
            Err(QueryError::AlgorithmMismatch { .. })
        ));

        // Auto-selected (scored, non-chain shape so selection probes
        // utility): falls back to BNL and still answers correctly.
        let p = around("a", 1).pareto(lowest("a"));
        let (rows, ex) = run(Optimizer::new(), &p, &r).unwrap();
        assert_eq!(ex.algorithm, Algorithm::Bnl);
        assert!(ex.reason.contains("fell back"));
        assert_eq!(rows, crate::bmo::sigma_naive_generic(&p, &r).unwrap());
    }

    #[test]
    fn selection_splits_single_lane_heads() {
        let r = sample();
        // A chain head and a POS head: the Prop. 10 head split under SFS,
        // on the cached matrix.
        for p in [
            lowest("a").prior(pos("c", ["x"])),
            pos("c", ["x"]).prior(lowest("a").pareto(highest("b"))),
        ] {
            let (rows, ex) = run(Optimizer::new(), &p, &r).unwrap();
            assert_eq!(ex.algorithm, Algorithm::Sfs, "{p}");
            assert!(ex.materialized);
            assert!(ex.reason.contains("Prop. 10 head split"), "{}", ex.reason);
            assert_eq!(rows, crate::bmo::sigma_naive_generic(&p, &r).unwrap());
        }
        // The cascade is still there when forced.
        let forced = Optimizer::new().with_algorithm(Algorithm::Cascade);
        let p = lowest("a").prior(pos("c", ["x"]));
        let (rows, ex) = run(forced, &p, &r).unwrap();
        assert_eq!(ex.algorithm, Algorithm::Cascade);
        assert_eq!(rows, crate::bmo::sigma_naive_generic(&p, &r).unwrap());
    }

    #[test]
    fn selection_picks_sfs_for_scored_non_chain() {
        let r = sample();
        let p = around("a", 3).pareto(lowest("b"));
        let (_, ex) = run(Optimizer::new(), &p, &r).unwrap();
        assert_eq!(ex.algorithm, Algorithm::Sfs);
    }

    #[test]
    fn selection_falls_back_to_bnl() {
        let r = sample();
        // POS ⊗ NEG has key lanes and no utility: the window kernel.
        let p = pos("c", ["x"]).pareto(neg("c", ["z"]));
        let (_, ex) = run(Optimizer::new(), &p, &r).unwrap();
        assert_eq!(ex.algorithm, Algorithm::Sfs);
        // A Pareto head has no single lane: BNL, still on the matrix.
        let p = lowest("a").pareto(highest("b")).prior(pos("c", ["x"]));
        let (rows, ex) = run(Optimizer::new(), &p, &r).unwrap();
        assert_eq!(ex.algorithm, Algorithm::Bnl);
        assert!(ex.materialized);
        assert_eq!(rows, crate::bmo::sigma_naive_generic(&p, &r).unwrap());
    }

    #[test]
    fn explicit_terms_use_the_reachability_bitset_backend() {
        let r = sample();
        let p = explicit("c", [("z", "x")]).unwrap();
        let (rows, ex) = run(Optimizer::new(), &p, &r).unwrap();
        assert!(ex.materialized);
        assert!(ex.explicit_bitsets);
        assert_eq!(rows, crate::bmo::sigma_naive_generic(&p, &r).unwrap());
        assert!(ex.to_string().contains("reachability bitsets"));

        // A non-materializable shape still reports the generic backend.
        let p = lowest("c"); // string chain: off the f64 axis
        let (_, ex) = run(Optimizer::new(), &p, &r).unwrap();
        assert!(!ex.materialized && !ex.explicit_bitsets);
        assert!(ex.to_string().contains("generic term-walk"));
    }

    #[test]
    fn forced_mismatches_error_cleanly() {
        let r = sample();
        let opt = Optimizer::new().with_algorithm(Algorithm::Dnc);
        assert!(matches!(
            run(opt, &pos("c", ["x"]), &r),
            Err(QueryError::AlgorithmMismatch { .. })
        ));
        // SFS refuses an order with neither key lanes nor a utility.
        let opt = Optimizer::new().with_algorithm(Algorithm::Sfs);
        assert!(matches!(
            run(opt, &explicit("c", [("z", "x")]).unwrap(), &r),
            Err(QueryError::AlgorithmMismatch { .. })
        ));
    }

    #[test]
    fn rewriting_is_reported_and_sound() {
        let r = sample();
        // P & P on the same attribute set rewrites to P (Prop. 4a).
        let p = pos("c", ["x"]).prior(neg("c", ["z"]));
        let (rows, ex) = run(Optimizer::new(), &p, &r).unwrap();
        assert!(ex.rewritten);
        assert_eq!(ex.simplified, pos("c", ["x"]).to_string());
        assert_eq!(rows, crate::bmo::sigma_naive_generic(&p, &r).unwrap());
        assert!(ex.to_string().contains("rewritten"));
    }

    #[test]
    fn prop7_rewrites_preserve_results() {
        // σ[P1](R) = σ[P2](R) whenever P1 ≡ P2: the engine evaluates the
        // simplified term, the Def. 15 oracle the term as submitted.
        let r = sample();
        for p in [
            Pref::Pareto(vec![lowest("a"), lowest("a"), highest("b")]),
            pos("c", ["x"]).prior(neg("c", ["z"])),
            lowest("a").dual().dual(),
        ] {
            let (rows, ex) = run(Optimizer::new(), &p, &r).unwrap();
            assert!(ex.rewritten, "{p} must be rewritten");
            assert_eq!(
                rows,
                crate::bmo::sigma_naive_generic(&p, &r).unwrap(),
                "Prop. 7 violated for {p}"
            );
        }
    }
}
