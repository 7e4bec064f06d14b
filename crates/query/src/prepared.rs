//! [`Prepared`] — a preference query compiled once by
//! [`Engine::prepare`], executable many times — and the
//! [`MaintainedResult`] each execution returns.
//!
//! This is the execution pipeline of `σ[P](R)`: the [`Plan`] made once
//! at prepare → elide when the constraint registry proves the winnow
//! redundant → result tier → matrix tier → algorithm → one [`Explain`]
//! report, whose `stats` line reads the relation it ran on. Which cache
//! entry answers each tier is the engine's business ([`crate::engine`]).

use std::sync::Arc;

use pref_core::algebra::simplify_traced;
use pref_core::eval::{CompiledPref, MatrixWindow};
use pref_core::term::Pref;
use pref_relation::{Relation, RelationError, Schema};

use crate::engine::Engine;
use crate::error::QueryError;
use crate::optimizer::{run_algorithm, Algorithm, CacheStatus, Explain, Optimizer};
use crate::plan::{self, Plan, RelationPlan};

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
    /// The plan, made once at prepare and shared across clones.
    plan: Arc<Plan>,
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
        let force = engine.optimizer().force;
        let plan = Arc::new(Plan::new(&simplified, &compiled, schema, trace, force));
        Ok(Prepared {
            engine: engine.clone(),
            rewritten: simplified_str != original,
            original,
            simplified,
            simplified_str,
            compiled,
            fingerprint,
            schema: schema.clone(),
            plan,
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

    /// The matrix this query's algorithm reads over `r`
    /// ([`Prepared::matrix`]) and the tier that served it: none
    /// ([`CacheStatus::Bypass`]) when it reads no matrix or
    /// materialization is off.
    pub(crate) fn tiered_matrix(&self, r: &Relation) -> (Option<MatrixWindow>, CacheStatus) {
        if self.engine.optimizer().no_materialize || !Optimizer::uses_matrix(self.plan.algorithm) {
            return (None, CacheStatus::Bypass);
        }
        self.engine
            .cached_matrix(self.fingerprint, &self.compiled, r)
    }

    /// This query's [`Plan`] over `r`: the prepare-time plan plus `r`'s
    /// row count, generation and the Def. 18 result estimate.
    pub fn plan(&self, r: &Relation) -> RelationPlan {
        let rows = r.len();
        // A plan that applied no shape rule — forced or elided — makes
        // no estimate: every row.
        let estimated_result = if self.plan.candidates.is_empty() {
            rows as f64
        } else {
            plan::estimated_result(&self.simplified, rows).max(1.0)
        };
        RelationPlan {
            plan: Arc::clone(&self.plan),
            rows,
            generation: r.generation(),
            estimated_result,
        }
    }

    /// The one place an [`Explain`] is built: this query's identity, its
    /// plan over `r`, and what the execution observed — the algorithm
    /// that actually ran, whether it ran on a score matrix, the cache
    /// outcome. A matrix runs EXPLICIT sub-terms on reachability bitsets
    /// exactly when the term has one, so that backend flag is derived
    /// here rather than carried along.
    pub(crate) fn report(
        &self,
        r: &Relation,
        algorithm: Algorithm,
        materialized: bool,
        cache: CacheStatus,
        reason: String,
    ) -> Explain {
        Explain {
            original: self.original.clone(),
            simplified: self.simplified_str.clone(),
            rewritten: self.rewritten,
            plan: self.plan(r),
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
        let algorithm = self.plan.algorithm;
        let materialized = !self.engine.optimizer().no_materialize
            && Optimizer::uses_matrix(algorithm)
            && self.compiled.supports_matrix(r);
        let reason = self.plan.reason.clone();
        self.report(r, algorithm, materialized, CacheStatus::Bypass, reason)
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
        let redundant = self.plan.redundant;
        // Result tier first: an exact or delta-maintained previous
        // result answers without touching the matrix cache or running
        // any algorithm at all. An elided winnow touches no cache.
        let cached = (!redundant).then(|| {
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
            let algorithm = self.plan.algorithm;
            return Ok((rows, self.report(r, algorithm, materialized, cache, reason)));
        }
        let (matrix, cache) = self.tiered_matrix(r);
        let (rows, algorithm, reason) = self.evaluate(matrix.as_ref(), r)?;
        let materialized = matrix.is_some();
        if !redundant {
            self.engine
                .seed_result(self.fingerprint, r, &rows, materialized);
        }
        Ok((rows, self.report(r, algorithm, materialized, cache, reason)))
    }

    /// The evaluation step of every winnow of this query: every row of
    /// `r` when the plan elides it (Chomicki elimination: the constraint
    /// registry proves σ[P](R) = R — no algorithm, no matrix), otherwise
    /// the plan's algorithm over `matrix` (rows of `r`, row for row) or
    /// the term walk. Returns the rows, the algorithm that ran and why.
    pub(crate) fn evaluate(
        &self,
        matrix: Option<&MatrixWindow>,
        r: &Relation,
    ) -> Result<(Vec<usize>, Algorithm, String), QueryError> {
        let plan = &self.plan;
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
