//! [`Prepared`] — a preference query compiled once by
//! [`Engine::prepare`], executable many times — and the
//! [`MaintainedResult`] each execution returns.
//!
//! This is the execution pipeline of `σ[P](R)`: plan (cached per
//! query, replanned on row-count drift) → elide when the constraint
//! registry proves the winnow redundant → result tier → matrix tier →
//! algorithm → one [`Explain`] report. Which cache entry answers each
//! tier is the engine's business ([`crate::engine`]).

use std::sync::Arc;

use parking_lot::Mutex;

use pref_core::algebra::simplify_traced;
use pref_core::eval::{CompiledPref, MatrixWindow};
use pref_core::term::Pref;
use pref_relation::{Relation, RelationError, Schema};

use crate::engine::Engine;
use crate::error::QueryError;
use crate::optimizer::{run_algorithm, Algorithm, CacheStatus, Explain, Optimizer};
use crate::plan::{self, Plan, SemanticInfo, PLANNER_REPLAN_DRIFT};

/// The result of one [`Prepared::execute`]: the BMO row set plus the
/// identity it was computed at — the relation generation and the term
/// fingerprint, i.e. exactly the engine's result-cache key. The same
/// row set is cached inside the engine, so re-asking
/// the same prepared query over the same content state serves this
/// result verbatim, and re-asking it after a mutation *maintains* it
/// against the relation's delta instead of re-running the algorithm
/// ([`CacheStatus::MaintainedHit`]).
///
/// Destructure with [`MaintainedResult::into_parts`] (or
/// [`MaintainedResult::into_rows`]) where the old
/// `(Vec<usize>, Explain)` tuple was expected.
#[derive(Debug, Clone)]
pub struct MaintainedResult {
    rows: Vec<usize>,
    explain: Explain,
    generation: u64,
    fingerprint: u64,
}

impl MaintainedResult {
    /// The BMO result as sorted row indices into the executed relation.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// The execution's [`Explain`] — algorithm, backend, cache outcome.
    pub fn explain(&self) -> &Explain {
        &self.explain
    }

    /// Shorthand for the cache outcome this execution reported.
    pub fn cache(&self) -> CacheStatus {
        self.explain.cache
    }

    /// The relation content generation the rows were computed at. A
    /// relation still on this generation is byte-identical to the state
    /// this result describes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The term fingerprint of the query that produced the rows — the
    /// other half of the engine's result-cache key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Consume the handle into the classic `(rows, explain)` pair.
    pub fn into_parts(self) -> (Vec<usize>, Explain) {
        (self.rows, self.explain)
    }

    /// Consume the handle into just the row indices.
    pub fn into_rows(self) -> Vec<usize> {
        self.rows
    }
}

/// A preference query compiled once by [`Engine::prepare`], executable
/// many times. Holds the rewritten term, its compiled form, the
/// structural fingerprint, and a handle to the engine whose matrix cache
/// serves its executions. Terms are concrete: a front end with
/// placeholders (Preference SQL's `$n`) substitutes its values first and
/// prepares the term it gets.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub(crate) engine: Engine,
    pub(crate) original: String,
    simplified: Pref,
    simplified_str: String,
    rewritten: bool,
    compiled: CompiledPref,
    fingerprint: u64,
    pub(crate) schema: Schema,
    /// Schema-level planning, computed once at prepare: the rewrite
    /// derivation trace plus the constraint-registry semantic verdict.
    semantic: Arc<SemanticInfo>,
    /// The relation-level [`Plan`] of the most recent execution, shared
    /// across clones. Replaced lazily when the row count drifts past
    /// [`PLANNER_REPLAN_DRIFT`]; the guard is never held across
    /// planning, matrix builds, or any other lock.
    plan_cell: Arc<Mutex<Option<Arc<Plan>>>>,
}

impl Prepared {
    /// Compile `pref` against `schema` for `engine` — the body of
    /// [`Engine::prepare`].
    pub(crate) fn new(engine: &Engine, pref: &Pref, schema: &Schema) -> Result<Self, QueryError> {
        let original = pref.to_string();
        let (simplified, trace) = simplify_traced(pref);
        let simplified_str = simplified.to_string();
        let compiled = CompiledPref::compile(&simplified, schema)?;
        let fingerprint = compiled.fingerprint();
        // Schema-level planning happens once, here: fold the rewrite
        // trace into derivation steps and decide redundancy from the
        // schema's constraint registry. The relation-level half (result
        // estimate, shape rule) is computed lazily on first execution.
        let semantic = Arc::new(SemanticInfo::analyze(&simplified, schema, trace));
        Ok(Prepared {
            engine: engine.clone(),
            rewritten: simplified_str != original,
            original,
            simplified,
            simplified_str,
            compiled,
            fingerprint,
            schema: schema.clone(),
            semantic,
            plan_cell: Arc::new(Mutex::new(None)),
        })
    }

    /// The simplified (rewritten) term this query evaluates.
    pub fn term(&self) -> &Pref {
        &self.simplified
    }

    /// The stable structural fingerprint of the compiled term — one half
    /// of the engine's `(generation, fingerprint)` cache key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The compiled (rewritten) form of the term — for callers that need
    /// direct `better`/`utility` access on the exact object the engine
    /// caches matrices for.
    pub fn compiled(&self) -> &CompiledPref {
        &self.compiled
    }

    /// The engine-cached score matrix view of this query over `r` (built
    /// and cached on first request), or `None` when the term does not
    /// materialize on `r` or the engine's optimizer disables
    /// materialization. Derived views resolve through their lineage, so
    /// a re-derivation of an already-seen subset returns the cached
    /// matrix without a rebuild — and a windowable row-id view over a
    /// warmed base returns a [`MatrixWindow`] onto the base's matrix
    /// even when the subset itself was never seen.
    pub fn matrix(&self, r: &Relation) -> Option<MatrixWindow> {
        if self.engine.optimizer().no_materialize {
            return None;
        }
        let (matrix, _) = (self.engine).cached_matrix(self.fingerprint, &self.compiled, r);
        matrix
    }

    /// The matrix `plan`'s algorithm reads over `r` ([`Prepared::matrix`])
    /// and the tier that served it: none ([`CacheStatus::Bypass`]) when
    /// it reads no matrix or materialization is off.
    pub(crate) fn tiered_matrix(
        &self,
        plan: &Plan,
        r: &Relation,
    ) -> (Option<MatrixWindow>, CacheStatus) {
        if self.engine.optimizer().no_materialize || !Optimizer::uses_matrix(plan.algorithm) {
            return (None, CacheStatus::Bypass);
        }
        self.engine
            .cached_matrix(self.fingerprint, &self.compiled, r)
    }

    /// The relation-level [`Plan`] of this query over `r`: reuses the
    /// cached plan while the row count stays within
    /// `PLANNER_REPLAN_DRIFT` (2×) of the planned state, replans
    /// otherwise.
    pub fn plan(&self, r: &Relation) -> Arc<Plan> {
        {
            let cell = self.plan_cell.lock();
            if let Some(p) = cell.as_ref() {
                let (lo, hi) = if p.rows <= r.len() {
                    (p.rows, r.len())
                } else {
                    (r.len(), p.rows)
                };
                if p.generation == r.generation()
                    || (lo > 0 && hi as f64 <= lo as f64 * PLANNER_REPLAN_DRIFT)
                {
                    return Arc::clone(p);
                }
            }
        }
        // Plan outside the cell guard: an estimate that reads a distinct
        // count may scan the relation to fill its statistics cell.
        let plan = Arc::new(self.compute_plan(r));
        *self.plan_cell.lock() = Some(Arc::clone(&plan));
        plan
    }

    fn compute_plan(&self, r: &Relation) -> Plan {
        let opt = self.engine.optimizer();
        if self.semantic.redundant && opt.force.is_none() {
            // Redundant winnow: no candidates — nothing runs.
            return Plan {
                steps: self.semantic.steps.clone(),
                constraints_used: self.semantic.constraints_used.clone(),
                redundant: true,
                rows: r.len(),
                generation: r.generation(),
                estimated_result: r.len() as f64,
                candidates: Vec::new(),
                algorithm: Algorithm::Elided,
                reason: "winnow eliminated: registered integrity constraints prove \
                         σ[P](R) = R — zero algorithm runs"
                    .to_string(),
            };
        }
        let (algorithm, reason, candidates, estimated_result) = match opt.force {
            Some(a) => (
                a,
                "forced by caller".to_string(),
                Vec::new(),
                r.len() as f64,
            ),
            None => plan::choose(&self.simplified, &self.compiled, r),
        };
        Plan {
            steps: self.semantic.steps.clone(),
            constraints_used: self.semantic.constraints_used.clone(),
            redundant: false,
            rows: r.len(),
            generation: r.generation(),
            estimated_result,
            candidates,
            algorithm,
            reason,
        }
    }

    /// The one place an [`Explain`] is built: this query's identity,
    /// the plan it ran (or would run) under, and what the execution
    /// observed — the algorithm that actually ran, whether it ran on a
    /// score matrix, the cache outcome. A matrix runs EXPLICIT sub-terms
    /// on reachability bitsets exactly when the term has one, so that
    /// backend flag is derived here rather than carried along.
    pub(crate) fn report(
        &self,
        r: &Relation,
        plan: Arc<Plan>,
        algorithm: Algorithm,
        materialized: bool,
        cache: CacheStatus,
        reason: String,
    ) -> Explain {
        Explain {
            original: self.original.clone(),
            simplified: self.simplified_str.clone(),
            rewritten: self.rewritten,
            plan,
            algorithm,
            materialized,
            explicit_bitsets: materialized && self.compiled.has_explicit(),
            cache,
            generation: r.generation(),
            lineage: r.lineage(),
            shape_fingerprint: None,
            binding: None,
            reason,
        }
    }

    /// Plan without executing — the report behind `EXPLAIN SELECT`: the
    /// derivation, the rule's candidates and the backend the chosen algorithm
    /// would run on. No matrix is materialized and no algorithm runs.
    pub fn explain(&self, r: &Relation) -> Explain {
        let plan = self.plan(r);
        let (algorithm, reason) = (plan.algorithm, plan.reason.clone());
        let materialized = !self.engine.optimizer().no_materialize
            && Optimizer::uses_matrix(algorithm)
            && self.compiled.supports_matrix(r);
        self.report(
            r,
            plan,
            algorithm,
            materialized,
            CacheStatus::Bypass,
            reason,
        )
    }

    /// Evaluate `σ[P](R)`, returning a [`MaintainedResult`]: the sorted
    /// row indices, the [`Explain`] (including cache outcome and
    /// relation generation), and the `(generation, fingerprint)`
    /// identity under which the engine keeps maintaining the result
    /// across mutations.
    ///
    /// `r` must have the schema the query was prepared against; a
    /// mismatch surfaces as a schema error instead of silently reading
    /// the wrong columns.
    pub fn execute(&self, r: &Relation) -> Result<MaintainedResult, QueryError> {
        self.check_schema(r)?;
        let (rows, explain) = self.run(r)?;
        Ok(MaintainedResult {
            rows,
            explain,
            generation: r.generation(),
            fingerprint: self.fingerprint,
        })
    }

    /// The schema guard of [`Prepared::execute`], shared by every other
    /// operator of this query.
    pub(crate) fn check_schema(&self, r: &Relation) -> Result<(), QueryError> {
        if r.schema().same_as(&self.schema) {
            return Ok(());
        }
        Err(QueryError::Relation(RelationError::SchemaMismatch {
            left: self.schema.to_string(),
            right: r.schema().to_string(),
        }))
    }

    fn run(&self, r: &Relation) -> Result<(Vec<usize>, Explain), QueryError> {
        let plan = self.plan(r);
        // Result tier first: an exact or delta-maintained previous
        // result answers without touching the matrix cache or running
        // any algorithm at all. An elided winnow touches no cache.
        let cached = (!plan.redundant).then(|| {
            self.engine
                .cached_result(self.fingerprint, &self.compiled, r)
        });
        if let Some((rows, cache, materialized)) = cached.flatten() {
            let reason = match cache {
                CacheStatus::Hit => "result cached for this exact content state".to_string(),
                _ => "result maintained across the relation's delta: changed rows \
                      classified against the previous skyline"
                    .to_string(),
            };
            let algorithm = plan.algorithm;
            return Ok((
                rows,
                self.report(r, plan, algorithm, materialized, cache, reason),
            ));
        }
        let (matrix, cache) = self.tiered_matrix(&plan, r);
        let (rows, algorithm, reason) = self.evaluate(&plan, matrix.as_ref(), r)?;
        let materialized = matrix.is_some();
        if !plan.redundant {
            self.engine
                .seed_result(self.fingerprint, r, &rows, materialized);
        }
        Ok((
            rows,
            self.report(r, plan, algorithm, materialized, cache, reason),
        ))
    }

    /// The evaluation step of every winnow of this query: every row of
    /// `r` when `plan` elides it (Chomicki elimination: the constraint
    /// registry proves σ[P](R) = R — no algorithm, no matrix), otherwise
    /// `plan`'s algorithm over `matrix` (rows of `r`, row for row) or the
    /// term walk. Returns the rows, the algorithm that ran and why.
    pub(crate) fn evaluate(
        &self,
        plan: &Plan,
        matrix: Option<&MatrixWindow>,
        r: &Relation,
    ) -> Result<(Vec<usize>, Algorithm, String), QueryError> {
        if plan.redundant {
            return Ok(((0..r.len()).collect(), plan.algorithm, plan.reason.clone()));
        }
        run_algorithm(
            &self.engine,
            &self.simplified,
            &self.compiled,
            matrix,
            (plan.algorithm, plan.reason.clone()),
            r,
        )
    }

    /// Evaluate and materialize the sub-relation of best matches.
    pub fn execute_rel(&self, r: &Relation) -> Result<Relation, QueryError> {
        Ok(r.take_rows(self.execute(r)?.rows()))
    }
}
