//! The prepared-query engine: compile once, cache score matrices,
//! execute many.
//!
//! The BMO model assumes users fire *streams* of preference queries
//! against slowly-changing relations (the paper's e-shopping sessions;
//! Chomicki's changing-preferences setting formalizes the same reuse).
//! `Engine::prepare → Prepared::execute` is the one way `σ[P](R)` is
//! evaluated, and an [`Engine`] amortizes planning, compilation and
//! [`ScoreMatrix`] materialization across calls:
//!
//! * [`Engine::prepare`] rewrites and compiles a term **once**, producing
//!   a [`Prepared`] query that carries the compiled form plus its stable
//!   structural fingerprint ([`CompiledPref::fingerprint`]);
//! * [`Prepared::execute`] fetches the score matrix from an engine-level
//!   cache keyed by `(relation generation, term fingerprint)` — repeat
//!   executions over an unchanged relation skip materialization entirely,
//!   while any mutation moves the relation to a fresh generation
//!   ([`Relation::generation`]) and transparently invalidates every
//!   cached matrix built on the old state;
//! * the [`Explain`](crate::optimizer::Explain) of each execution reports
//!   the cache outcome ([`CacheStatus`]) and the generation it ran
//!   against, so callers can assert amortization instead of guessing.
//!
//! This module is the engine's *tier resolution*: which cached matrix
//! or cached result answers a request. The storage behind both is the
//! one bounded cache type of `cache`
//! (one read/write lock per cache — a lookup takes its *read* lock once
//! for every tier it probes, and materialization always runs outside
//! every lock); the result-maintenance classifier is
//! `maintain`; [`Prepared`] and the execution pipeline live in
//! `prepared`. Cache statistics are plain atomics
//! ([`Engine::cache_stats`] is lock-free).
//!
//! The engine is cheaply clonable (all state behind an `Arc`) and
//! thread-safe; a [`Prepared`] holds a handle to its engine, so prepared
//! queries stay valid wherever they are sent.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pref_core::eval::{CompiledPref, MatrixWindow, ScoreMatrix};
use pref_core::term::Pref;
use pref_relation::{Relation, Schema};

use crate::cache::{build_scope, Lru};
use crate::error::QueryError;
use crate::maintain::maintain_result;
use crate::optimizer::{CacheStatus, Optimizer};

pub use crate::prepared::{MaintainedResult, Prepared};

/// Default number of cached score matrices per engine.
const DEFAULT_CAPACITY: usize = 64;

/// Aggregate cache counters of an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Executions served from a cached matrix (generation, lineage, or
    /// window route).
    pub hits: u64,
    /// The subset of `hits` resolved through a derived relation's
    /// lineage `(base generation, predicate fingerprint)` rather than an
    /// exact generation match.
    pub derived_hits: u64,
    /// The subset of `hits` served by *windowing* the cached whole-base
    /// matrix onto a row-id view — a subset (even with a never-seen
    /// predicate) running warm through index indirection
    /// ([`CacheStatus::WindowHit`]).
    pub window_hits: u64,
    /// Executions served by an *incremental rebuild*: the relation
    /// grew, and its [`Delta`](pref_relation::Delta) matched a cached
    /// prior state, so the build re-encoded only the appended rows
    /// ([`CacheStatus::ShardHit`]). Counted separately from both `hits`
    /// (some keys were built) and `misses` (most were not).
    pub shard_hits: u64,
    /// Executions served by *maintaining* a cached BMO result across a
    /// mutation ([`CacheStatus::MaintainedHit`]): the changed rows were
    /// classified against the previous skyline instead of re-running the
    /// algorithm — no matrix was consulted at all. Counted separately
    /// from `hits` (the result was patched, not served verbatim) and
    /// from `shard_hits` (no matrix was rebuilt either).
    pub maintained_hits: u64,
    /// Executions that had to build (and then cached) a matrix.
    pub misses: u64,
    /// Matrices currently resident.
    pub entries: usize,
    /// Maintained BMO results currently resident (bounded separately
    /// from, but by the same capacity as, the matrix entries).
    pub result_entries: usize,
}

impl CacheStats {
    /// The canonical `key=value` wire rendering, shared by the server's
    /// `STATS` verb and anything else that needs a machine-parseable
    /// one-liner. Exactly one serialization exists so the wire view and
    /// the Rust view cannot drift.
    pub fn wire_format(&self) -> String {
        format!(
            "hits={} derived_hits={} window_hits={} shard_hits={} maintained_hits={} \
             misses={} entries={} result_entries={}",
            self.hits,
            self.derived_hits,
            self.window_hits,
            self.shard_hits,
            self.maintained_hits,
            self.misses,
            self.entries,
            self.result_entries
        )
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits ({} derived, {} windowed) / {} shard-incremental / {} maintained / \
             {} misses, {} resident (+{} results)",
            self.hits,
            self.derived_hits,
            self.window_hits,
            self.shard_hits,
            self.maintained_hits,
            self.misses,
            self.entries,
            self.result_entries
        )
    }
}

/// A matrix cache key. Whole relations key by content generation; derived
/// views key by their [`Lineage`](pref_relation::Lineage) so a
/// *re-derivation* of the same subset (fresh generation, equal lineage)
/// still finds the matrix. Both key kinds end in the term fingerprint,
/// the component every probe of one lookup shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MatrixKey {
    /// `(relation generation, term fingerprint)`.
    Generation(u64, u64),
    /// `(base generation, predicate fingerprint, term fingerprint)`.
    Derived(u64, u64, u64),
}

/// A materialized BMO result, cached beside the matrices: the row set a
/// term selected from one relation content state, stored as *row
/// positions* of that state (ascending — every algorithm returns sorted
/// indices). Exact-generation re-executions serve it verbatim; after a
/// mutation the maintenance classifier patches it against the
/// relation's [`Delta`](pref_relation::Delta) instead of re-running the
/// algorithm.
struct ResultState {
    /// Result row positions at the keyed generation, ascending.
    rows: Vec<u32>,
    /// Whether the producing execution ran on a score matrix —
    /// replayed on exact hits so an `Explain` served from the result
    /// tier describes the backend that actually computed the rows.
    materialized: bool,
}

struct EngineInner {
    optimizer: Optimizer,
    /// Score matrices. Warm lookups take the *read* lock; only inserts
    /// (with their evictions) take the write lock.
    matrices: Lru<MatrixKey, Arc<ScoreMatrix>>,
    /// Maintained results, keyed `(relation generation, term
    /// fingerprint)`. Results key by generation only — a result is a
    /// tiny `Vec<u32>`, so caching per exact content state (rather than
    /// per lineage) is cheap, and the maintenance classifier reaches
    /// prior states through the relation's delta anyway. Bounded by the
    /// same capacity as the matrices but counted (and evicted)
    /// independently: a result is orders of magnitude smaller than a
    /// matrix, so one must never evict the other.
    results: Lru<(u64, u64), Arc<ResultState>>,
    hits: AtomicU64,
    derived_hits: AtomicU64,
    window_hits: AtomicU64,
    shard_hits: AtomicU64,
    maintained_hits: AtomicU64,
    misses: AtomicU64,
}

impl fmt::Debug for EngineInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("optimizer", &self.optimizer)
            .field("capacity", &self.matrices.capacity)
            .finish_non_exhaustive()
    }
}

/// A long-lived preference query engine: optimizer configuration plus a
/// bounded, LRU-evicted cache of score matrices keyed by
/// `(relation generation, term fingerprint)`.
#[derive(Debug, Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Engine with the default optimizer configuration.
    pub fn new() -> Self {
        Engine::with_optimizer(Optimizer::new())
    }

    /// Engine with a custom optimizer configuration (forced algorithms,
    /// thread counts, materialization ablation — all honored per query).
    pub fn with_optimizer(mut optimizer: Optimizer) -> Self {
        // "Auto" is resolved here, once: `available_parallelism` reads
        // the affinity mask and the cgroup quota files (~15 µs), several
        // times what a warm request costs.
        if optimizer.threads == 0 {
            optimizer.threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        }
        Engine {
            inner: Arc::new(EngineInner {
                optimizer,
                matrices: Lru::new(DEFAULT_CAPACITY),
                results: Lru::new(DEFAULT_CAPACITY),
                hits: AtomicU64::new(0),
                derived_hits: AtomicU64::new(0),
                window_hits: AtomicU64::new(0),
                shard_hits: AtomicU64::new(0),
                maintained_hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }

    /// Bound the matrix cache to `capacity` entries (LRU eviction).
    /// `0` disables caching: every execution rebuilds its matrix.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        // Engines are only configured before being shared; keep the
        // builder ergonomic without an extra config struct.
        let inner = Arc::get_mut(&mut self.inner)
            .expect("with_capacity is a builder call, before the engine is shared");
        inner.matrices.capacity = capacity;
        inner.results.capacity = capacity;
        self
    }

    /// The engine's optimizer configuration, with `threads` resolved to
    /// a concrete count (≥ 1).
    pub fn optimizer(&self) -> &Optimizer {
        &self.inner.optimizer
    }

    /// Compile `pref` against `schema` once: algebraic rewrite
    /// (Prop. 2–4, sound by Prop. 7), attribute resolution, fingerprint.
    /// The returned [`Prepared`] can be executed any number of times
    /// against relations with the same schema.
    pub fn prepare(&self, pref: &Pref, schema: &Schema) -> Result<Prepared, QueryError> {
        Prepared::new(self, pref, schema)
    }

    /// Current cache counters. Lock-free: every counter (including the
    /// resident-entry count) is an atomic maintained by the execution
    /// paths, so stats reads never contend with — or convoy behind —
    /// concurrent query executions. Counters are individually exact;
    /// a snapshot taken while executions are in flight may be skewed by
    /// those in-flight requests, exactly like any monitoring read.
    pub fn cache_stats(&self) -> CacheStats {
        let inner = &self.inner;
        // Relaxed: monitoring loads — each counter is individually
        // exact, and no cross-counter ordering is promised (see above).
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CacheStats {
            hits: ld(&inner.hits),
            derived_hits: ld(&inner.derived_hits),
            window_hits: ld(&inner.window_hits),
            shard_hits: ld(&inner.shard_hits),
            maintained_hits: ld(&inner.maintained_hits),
            misses: ld(&inner.misses),
            entries: inner.matrices.len(),
            result_entries: inner.results.len(),
        }
    }

    /// Fetch or build the score matrix for term fingerprint `fp` over
    /// `r`. Lookup resolution order:
    ///
    /// 1. exact `(generation, fp)` key ([`CacheStatus::Hit`]);
    /// 2. for derived views, the `(base generation, predicate fp, fp)`
    ///    lineage key — a fresh re-derivation of a cached subset is
    ///    served warm ([`CacheStatus::DerivedHit`]);
    /// 3. for *windowable* row-id views ([`Relation::window_ids`]), the
    ///    dense base's own `(base generation, fp)` entry, served through
    ///    a [`MatrixWindow`] index indirection
    ///    ([`CacheStatus::WindowHit`]) — this is how a subset under a
    ///    never-before-seen predicate still skips materialization;
    /// 4. for dense relations carrying a [`Delta`](pref_relation::Delta),
    ///    any remembered prior content state with a resident matrix —
    ///    the matrix is rebuilt *incrementally*, copying that matrix's
    ///    lanes and re-encoding only the appended rows
    ///    ([`CacheStatus::ShardHit`]);
    /// 5. build ([`CacheStatus::Miss`]).
    ///
    /// Returns [`CacheStatus::Bypass`] when the term does not materialize
    /// on `r`, so callers can tell "reused" from "not applicable". A
    /// freshly built matrix is inserted (when caching is enabled):
    /// lineage-carrying relations under their lineage key
    /// (re-derivations recur), lineage-less relations under the
    /// generation key.
    pub(crate) fn cached_matrix(
        &self,
        fp: u64,
        c: &CompiledPref,
        r: &Relation,
    ) -> (Option<MatrixWindow>, CacheStatus) {
        let inner = &self.inner;
        let primary = MatrixKey::Generation(r.generation(), fp);
        let derived = r
            .lineage()
            .map(|l| MatrixKey::Derived(l.base_generation(), l.predicate(), fp));
        // A prior content state whose matrix is resident, found through
        // the relation's mutation delta — the incremental-rebuild seed,
        // resolved under the read lock but consumed outside it.
        let mut reusable: Option<(Arc<ScoreMatrix>, usize)> = None;
        if inner.matrices.capacity > 0 {
            // The whole multi-tier lookup resolves under one read-lock
            // acquisition, shared with every other concurrent reader.
            let cached = inner.matrices.read();
            for (key, status) in std::iter::once((primary, CacheStatus::Hit))
                .chain(derived.map(|k| (k, CacheStatus::DerivedHit)))
            {
                if let Some(matrix) = cached.get(&key) {
                    // Relaxed throughout this arm: the hit counters are
                    // statistics; the matrix Arc itself is ordered by
                    // the cache lock.
                    inner.hits.fetch_add(1, Ordering::Relaxed);
                    if status == CacheStatus::DerivedHit {
                        // Relaxed: statistic, see above.
                        inner.derived_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    return (Some(MatrixWindow::full(Arc::clone(matrix))), status);
                }
            }
            // Window tier: the subset itself was never materialized, but
            // its rows are (a subset of) the dense base's rows, and the
            // base's whole-relation matrix is resident — serve it through
            // row-id indirection instead of building a subset matrix.
            if let Some((base_gen, ids)) = r.window_ids() {
                if let Some(matrix) = cached.get(&MatrixKey::Generation(base_gen, fp)) {
                    // The windowable invariant guarantees every id indexes
                    // the base's row space; keep a release-mode guard so a
                    // broken lineage contract degrades to a rebuild, never
                    // to out-of-range reads of someone else's matrix.
                    let rows = matrix.len();
                    if ids.iter().all(|&i| (i as usize) < rows) {
                        // Relaxed: statistics, same contract as the
                        // exact-hit arm above.
                        inner.hits.fetch_add(1, Ordering::Relaxed);
                        // Relaxed: statistic, see above.
                        inner.window_hits.fetch_add(1, Ordering::Relaxed);
                        return (
                            Some(MatrixWindow::windowed(Arc::clone(matrix), Arc::clone(ids))),
                            CacheStatus::WindowHit,
                        );
                    }
                }
            }
            // Shard tier: the relation mutated, but its delta names prior
            // content states it extends. If any of them has a resident
            // matrix of exactly the recorded prefix length, seed an
            // incremental rebuild from it: only the appended rows are
            // encoded (outside the lock, below).
            //
            // Dense relations only: the incremental build is positional
            // (base state = unchanged storage prefix of `r`), and a
            // tombstone view carrying a delta shifts every position after
            // the victim — its deletes are served by the *result*
            // maintenance tier instead, and its matrices rebuild cold.
            if let Some(delta) = r.delta().filter(|_| r.row_ids().is_none()) {
                reusable = delta.bases().iter().find_map(|&(base_gen, base_len)| {
                    cached
                        .get(&MatrixKey::Generation(base_gen, fp))
                        .filter(|m| m.len() == base_len)
                        .map(|m| (Arc::clone(m), base_len))
                });
            }
        }
        // Build outside any lock: materialization is the expensive part,
        // and concurrent executions of the same query should not serialize
        // on it (a duplicate build is wasted work, never wrong results).
        if let Some((prev, prefix_len)) = reusable {
            build_scope();
            // Storage only grows by appends: no prefix row ever changed.
            if let Some(m) = c.score_matrix_incremental(r, &prev, prefix_len, &[], 1) {
                let m = Arc::new(m);
                // Relaxed: statistic only.
                inner.shard_hits.fetch_add(1, Ordering::Relaxed);
                inner
                    .matrices
                    .insert(derived.unwrap_or(primary), Arc::clone(&m));
                return (Some(MatrixWindow::full(m)), CacheStatus::ShardHit);
            }
        }
        build_scope();
        match c.score_matrix(r) {
            None => (None, CacheStatus::Bypass),
            Some(m) => {
                let m = Arc::new(m);
                // Relaxed: statistic. Count every fresh build, cached or
                // not, so stats stay consistent with the `Miss` the
                // Explain reports.
                inner.misses.fetch_add(1, Ordering::Relaxed);
                inner
                    .matrices
                    .insert(derived.unwrap_or(primary), Arc::clone(&m));
                (Some(MatrixWindow::full(m)), CacheStatus::Miss)
            }
        }
    }

    /// Does the maintained-result tier serve `r`? Not when caching or
    /// materialization is disabled, and not for lineage-carrying derived
    /// views: every
    /// derivation draws a fresh generation and carries no
    /// [`Delta`](pref_relation::Delta), so a result cached for one could
    /// only ever be read back by re-executing the very same `Relation`
    /// value — dead weight that would push live entries out of the LRU.
    fn result_tier_serves(&self, r: &Relation) -> bool {
        self.inner.results.capacity > 0
            && !self.inner.optimizer.no_materialize
            && r.lineage().is_none()
            && r.len() <= u32::MAX as usize
    }

    /// Probe the maintained-result tier for term fingerprint `fp` over
    /// `r`. Resolution order:
    ///
    /// 1. exact `(generation, fp)` — the previous execution's row set is
    ///    served verbatim ([`CacheStatus::Hit`]), replaying the backend
    ///    flags the producing execution reported (and keeping its matrix
    ///    resident for windows over `r`, see `keep_matrix_warm`);
    /// 2. a prior content state out of `r`'s
    ///    [`Delta`](pref_relation::Delta) has a cached result — the
    ///    maintenance classifier (`maintain`) patches it
    ///    against the delta ([`CacheStatus::MaintainedHit`]): surviving
    ///    result members stay, appended rows are BNL-inserted against the
    ///    old skyline, and a delete that removes a result member falls
    ///    through to a full recompute.
    ///
    /// Returns `(rows, status, materialized)`, or
    /// `None` when the tier cannot answer (disabled, cold, or the
    /// classifier bailed) — callers then run the normal matrix/algorithm
    /// path.
    pub(crate) fn cached_result(
        &self,
        fp: u64,
        c: &CompiledPref,
        r: &Relation,
    ) -> Option<(Vec<usize>, CacheStatus, bool)> {
        if !self.result_tier_serves(r) {
            return None;
        }
        let inner = &self.inner;
        // Exact and delta probes resolve under one read-lock
        // acquisition; the maintenance work itself (dominance tests over
        // tuples) runs outside it.
        let (state, base_idx) = {
            let cached = inner.results.read();
            match cached.get(&(r.generation(), fp)) {
                Some(state) => (Arc::clone(state), None),
                None => {
                    let mut bases = r.delta()?.bases().iter().enumerate();
                    bases.find_map(|(k, &(g, _))| {
                        Some((Arc::clone(cached.get(&(g, fp))?), Some(k)))
                    })?
                }
            }
        };
        let Some(base_idx) = base_idx else {
            // Relaxed: statistic, exactly like the matrix hit arms.
            inner.hits.fetch_add(1, Ordering::Relaxed);
            if state.materialized {
                self.keep_matrix_warm(fp, c, r);
            }
            let rows = state.rows.iter().map(|&p| p as usize).collect();
            return Some((rows, CacheStatus::Hit, state.materialized));
        };
        let rows = maintain_result(c, r, &state.rows, base_idx)?;
        // Relaxed: statistic only.
        inner.maintained_hits.fetch_add(1, Ordering::Relaxed);
        // The maintained rows were classified by tuple-level dominance
        // tests, not a matrix backend.
        self.seed_result(fp, r, &rows, false);
        Some((rows, CacheStatus::MaintainedHit, false))
    }

    /// An exact result hit on `r` for a term whose result came off a
    /// matrix: keep that matrix resident, because `WHERE` views of `r`
    /// window onto it. The probe refreshes its LRU stamp; an evicted one
    /// is rebuilt here, once, on the calling thread (counted as a miss).
    /// Otherwise every later window over `r` would miss and build a
    /// view-sized matrix of its own, since the exact hit never reaches the
    /// matrix tier — on `sessions-warm` an anchor idle for ~64 inserts
    /// turned each of its refinements into a miss for the rest of the run.
    fn keep_matrix_warm(&self, fp: u64, c: &CompiledPref, r: &Relation) {
        let key = MatrixKey::Generation(r.generation(), fp);
        if self.inner.matrices.read().get(&key).is_some() {
            return;
        }
        build_scope();
        if let Some(m) = c.score_matrix(r) {
            // Relaxed: statistic only.
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
            self.inner.matrices.insert(key, Arc::new(m));
        }
    }

    /// Cache `rows` as the result of term fingerprint `fp` over `r`'s
    /// current content state, for exact repeats and for the maintenance
    /// classifier after the next mutation. Gated the same way the probe
    /// is ([`Engine::cached_result`]).
    pub(crate) fn seed_result(&self, fp: u64, r: &Relation, rows: &[usize], materialized: bool) {
        if self.result_tier_serves(r) {
            let state = ResultState {
                rows: rows.iter().map(|&p| p as u32).collect(),
                materialized,
            };
            self.inner
                .results
                .insert((r.generation(), fp), Arc::new(state));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::bnl::bnl_matrix;
    use crate::bmo::sigma_naive_generic;
    use crate::optimizer::Algorithm;
    use pref_core::prelude::*;
    use pref_relation::{rel, RelationError, Value};

    fn sample() -> Relation {
        rel! {
            ("a": Int, "b": Int, "c": Str);
            (1, 9, "x"), (2, 8, "y"), (3, 7, "x"), (9, 1, "z"),
            (5, 5, "x"), (6, 6, "y"), (1, 9, "x"), (0, 10, "z"),
        }
    }

    #[test]
    fn repeat_executions_hit_the_matrix_cache() {
        let engine = Engine::new();
        let r = sample();
        let p = pos("c", ["x"]).pareto(neg("c", ["z"]));
        let q = engine.prepare(&p, r.schema()).unwrap();

        let (rows1, ex1) = q.execute(&r).unwrap().into_parts();
        assert!(ex1.materialized);
        assert_eq!(ex1.cache, CacheStatus::Miss);
        assert_eq!(ex1.generation, r.generation());

        let res2 = q.execute(&r).unwrap();
        assert_eq!(
            res2.cache(),
            CacheStatus::Hit,
            "unchanged relation must hit"
        );
        assert_eq!(res2.generation(), r.generation());
        assert_eq!(res2.fingerprint(), q.fingerprint());
        assert!(
            res2.explain().materialized,
            "an exact result hit replays the producing execution's backend"
        );
        assert_eq!(rows1, res2.into_rows());
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        // A different prepared query with the same structure shares the
        // cache entry: the fingerprint, not the Prepared identity, keys it.
        let ex3 = engine.prepare(&p, r.schema()).unwrap().execute(&r).unwrap();
        assert_eq!(ex3.cache(), CacheStatus::Hit);
    }

    #[test]
    fn an_elided_plan_stays_right_because_constraints_are_enforced() {
        use pref_relation::{attr, Constraint};
        let schema = sample()
            .schema()
            .clone()
            .with_constraint(Constraint::Constant { attr: attr("c") })
            .unwrap();
        let mut r = Relation::empty(schema);
        for a in 0..4 {
            r.push_values(vec![Value::from(a), Value::from(a), Value::from("x")])
                .unwrap();
        }
        let p = pos("c", ["y"]);
        let q = Engine::new().prepare(&p, r.schema()).unwrap();
        let (rows, ex) = q.execute(&r).unwrap().into_parts();
        assert_eq!(ex.algorithm, Algorithm::Elided);
        assert_eq!(rows, sigma_naive_generic(&p, &r).unwrap());

        // A 'y' row would dominate every stored one while the elided
        // plan kept answering with all of them; the table refuses it.
        let err = r
            .push_values(vec![Value::from(9), Value::from(9), Value::from("y")])
            .unwrap_err();
        assert!(matches!(err, RelationError::ConstraintViolation { .. }));
        let (rows, ex) = q.execute(&r).unwrap().into_parts();
        assert_eq!(ex.algorithm, Algorithm::Elided);
        assert_eq!(rows, sigma_naive_generic(&p, &r).unwrap());
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn mutation_invalidates_and_results_stay_fresh() {
        let engine = Engine::new();
        let mut r = rel! {
            ("a": Int, "b": Int, "c": Str);
            (1, 9, "x"), (2, 8, "y"), (3, 7, "x"),
        };
        let p = around("a", 2).pareto(lowest("b"));
        let q = engine.prepare(&p, r.schema()).unwrap();

        let (_, ex) = q.execute(&r).unwrap().into_parts();
        assert_eq!(ex.cache, CacheStatus::Miss);
        let gen_before = ex.generation;
        assert_eq!(q.execute(&r).unwrap().cache(), CacheStatus::Hit);

        // Mutate: a dominating row appears. The cached result must not
        // answer verbatim for the new state — but the append-shaped
        // delta lets the engine *maintain* it: the new row is classified
        // against the previous skyline, no algorithm re-run at all.
        r.push_values(vec![Value::from(2), Value::from(0), Value::from("w")])
            .unwrap();
        let (rows, ex) = q.execute(&r).unwrap().into_parts();
        assert_ne!(ex.generation, gen_before);
        assert_eq!(
            ex.cache,
            CacheStatus::MaintainedHit,
            "append over a cached result must maintain incrementally"
        );
        assert!(
            !ex.cache.is_warm(),
            "a maintained hit still classified rows"
        );
        assert_eq!(rows, sigma_naive_generic(&p, &r).unwrap());
        assert_eq!(engine.cache_stats().maintained_hits, 1);

        // An engine that never saw the old state cannot take the
        // incremental route.
        let cold = Engine::new();
        let (rows2, ex2) = cold
            .prepare(&p, r.schema())
            .unwrap()
            .execute(&r)
            .unwrap()
            .into_parts();
        assert_eq!(ex2.cache, CacheStatus::Miss);
        assert_eq!(rows, rows2);
    }

    #[test]
    fn delete_views_bypass_the_positional_shard_tier() {
        // Regression: after `delete_row` the relation is a tombstone view
        // whose delta still names the dense pre-delete state — and that
        // state's resident matrix matches the recorded prefix length
        // exactly. The incremental rebuild is positional (base state =
        // unchanged storage prefix), so engaging it off a view replays
        // the old answer in stale storage coordinates. It must fall
        // through to a cold build instead. (The result tier answers
        // executions first; `Prepared::matrix` reaches the matrix route.)
        let engine = Engine::new();
        let mut r = rel! {
            ("a": Int, "b": Int, "c": Str);
            (1, 2, "x"), (2, 0, "y"), (3, 5, "x"), (4, 1, "y"),
        };
        let p = around("b", 0).pareto(lowest("a"));
        let q = engine.prepare(&p, r.schema()).unwrap();
        assert!(q.matrix(&r).is_some());

        // Delete a maximum: the survivors shift left and a previously
        // dominated row re-promotes — both wrong under matrix reuse.
        r.delete_row(1);
        let m = q.matrix(&r).expect("materializes");
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.shard_hits, stats.misses),
            (0, 2),
            "a tombstone view must not seed the positional shard rebuild"
        );
        assert_eq!(bnl_matrix(&m), sigma_naive_generic(&p, &r).unwrap());
    }

    #[test]
    fn appends_rebuild_the_matrix_incrementally() {
        // Result maintenance answers an append before the matrix route
        // (`mutation_invalidates_and_results_stay_fresh`);
        // `Prepared::matrix` reaches the matrix route directly.
        let engine = Engine::new();
        let mut r = rel! { ("a": Int, "b": Int); (0, 0) };
        for i in 1..10i64 {
            r.push_values(vec![Value::from(i), Value::from(100 - i)])
                .unwrap();
        }
        let p = around("a", 4).pareto(lowest("b"));
        let q = engine.prepare(&p, r.schema()).unwrap();
        assert!(q.matrix(&r).is_some());

        for (a, b) in [(99, 99), (4, 0)] {
            r.push_values(vec![Value::from(a), Value::from(b)]).unwrap();
            let m = q.matrix(&r).expect("materializes");
            assert_eq!(bnl_matrix(&m), sigma_naive_generic(&p, &r).unwrap());
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.shard_hits, 2);
        assert_eq!(stats.misses, 1, "only the cold build was a full miss");
    }

    #[test]
    fn auto_threads_resolve_once_at_construction() {
        assert!(Engine::new().optimizer().threads >= 1);
        let pinned = Engine::with_optimizer(Optimizer::new().with_threads(3));
        assert_eq!(pinned.optimizer().threads, 3);
    }

    #[test]
    fn reordering_mutations_forfeit_the_incremental_route() {
        let engine = Engine::new();
        let r = sample();
        let p = around("a", 2).pareto(lowest("b"));
        let q = engine.prepare(&p, r.schema()).unwrap();
        // A reordered view, whose ids do not track storage order.
        let mut v = r.take_rows(&(0..r.len()).rev().collect::<Vec<_>>());
        q.execute(&v).unwrap();

        // A delete from it records no prefix claim: full rebuild.
        v.delete_row(0);
        assert!(v.delta().is_none());
        let (rows, ex) = q.execute(&v).unwrap().into_parts();
        assert_eq!(ex.cache, CacheStatus::Miss);
        assert_eq!(rows, sigma_naive_generic(&p, &v).unwrap());
    }

    #[test]
    fn prepared_agrees_with_fresh_sigma_across_shapes() {
        let engine = Engine::new();
        let r = sample();
        for p in [
            lowest("a").pareto(highest("b")),
            around("a", 3).pareto(lowest("b")),
            pos("c", ["x"]).prior(lowest("a")),
            neg("c", ["z"]).pareto(pos("c", ["x"])),
            explicit("c", [("z", "x")]).unwrap(),
            lowest("a").intersect(highest("a")).unwrap(),
        ] {
            let q = engine.prepare(&p, r.schema()).unwrap();
            for _ in 0..2 {
                assert_eq!(
                    q.execute(&r).unwrap().into_rows(),
                    sigma_naive_generic(&p, &r).unwrap(),
                    "prepared execution diverged for {p}"
                );
            }
        }
    }

    #[test]
    fn explicit_terms_report_the_bitset_backend() {
        let engine = Engine::new();
        let r = sample();
        let p = explicit("c", [("z", "x")]).unwrap();
        let q = engine.prepare(&p, r.schema()).unwrap();
        let (rows, ex) = q.execute(&r).unwrap().into_parts();
        assert!(ex.materialized, "EXPLICIT now materializes");
        assert!(ex.explicit_bitsets);
        assert!(ex.to_string().contains("reachability bitsets"));
        assert_eq!(rows, sigma_naive_generic(&p, &r).unwrap());

        // An exact repeat is served by the result tier and reports the
        // backend that computed the rows.
        let dominance = |ex: &crate::optimizer::Explain| {
            ex.lines().into_iter().find(|l| l.starts_with("dominance"))
        };
        let again = q.execute(&r).unwrap();
        assert_eq!(again.cache(), CacheStatus::Hit);
        assert_eq!(
            again.explain().reason,
            "result cached for this exact content state"
        );
        assert_eq!(dominance(again.explain()), dominance(&ex));
    }

    #[test]
    fn schema_mismatch_is_an_error_not_a_wrong_answer() {
        let engine = Engine::new();
        let r = sample();
        let q = engine.prepare(&lowest("a"), r.schema()).unwrap();
        let other = rel! { ("a": Str, "z": Int); ("v", 1) };
        assert!(matches!(
            q.execute(&other),
            Err(QueryError::Relation(RelationError::SchemaMismatch { .. }))
        ));
    }

    #[test]
    fn capacity_zero_disables_caching_and_lru_evicts() {
        let r = sample();
        let p = lowest("a").pareto(highest("b"));

        let uncached = Engine::new().with_capacity(0);
        let q = uncached.prepare(&p, r.schema()).unwrap();
        // D&C shape — force BNL so a matrix is actually requested.
        let forced = Engine::with_optimizer(Optimizer::new().with_algorithm(Algorithm::Bnl))
            .with_capacity(0);
        let qf = forced.prepare(&p, r.schema()).unwrap();
        assert_eq!(qf.execute(&r).unwrap().cache(), CacheStatus::Miss);
        assert_eq!(qf.execute(&r).unwrap().cache(), CacheStatus::Miss);
        let stats = forced.cache_stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 2),
            "fresh builds count as misses even with caching disabled"
        );
        drop(q);

        // Capacity 1: the second distinct query evicts the first.
        let small = Engine::with_optimizer(Optimizer::new().with_algorithm(Algorithm::Bnl))
            .with_capacity(1);
        let q1 = small.prepare(&p, r.schema()).unwrap();
        let q2 = small
            .prepare(&around("a", 1).pareto(lowest("b")), r.schema())
            .unwrap();
        assert_eq!(q1.execute(&r).unwrap().cache(), CacheStatus::Miss);
        assert_eq!(q2.execute(&r).unwrap().cache(), CacheStatus::Miss);
        assert_eq!(small.cache_stats().entries, 1);
        assert_eq!(q1.execute(&r).unwrap().cache(), CacheStatus::Miss);
    }

    #[test]
    fn derived_views_do_not_seed_the_result_tier() {
        // Regression: a lineage-carrying view draws a fresh generation
        // per derivation and carries no delta, so a result cached for it
        // can never be probed again — yet it used to be inserted with
        // the newest LRU stamp, evicting the base table's live entry.
        let engine = Engine::new().with_capacity(1);
        let r = sample();
        let p = pos("c", ["x"]).pareto(neg("c", ["z"]));
        let q = engine.prepare(&p, r.schema()).unwrap();
        assert_eq!(q.execute(&r).unwrap().cache(), CacheStatus::Miss);
        assert_eq!(engine.cache_stats().result_entries, 1);

        let d = r.select_derived(|t| t[0] <= Value::from(5), 0x5e1);
        let (rows, ex) = q.execute(&d).unwrap().into_parts();
        assert_eq!(ex.cache, CacheStatus::WindowHit);
        assert_eq!(rows, sigma_naive_generic(&p, &d).unwrap());
        assert_eq!(
            engine.cache_stats().result_entries,
            1,
            "the view must not add a result entry"
        );

        // The base table's result survived: the repeat is answered by
        // the result tier (a matrix-tier exact hit reports `Hit` too,
        // so the reason tells them apart).
        let (_, ex) = q.execute(&r).unwrap().into_parts();
        assert_eq!(ex.cache, CacheStatus::Hit);
        assert_eq!(ex.reason, "result cached for this exact content state");
    }

    #[test]
    fn rederived_views_hit_via_lineage() {
        let engine = Engine::new();
        let r = sample();
        let p = pos("c", ["x"]).pareto(neg("c", ["z"]));
        let q = engine.prepare(&p, r.schema()).unwrap();
        let fp = pref_relation::predicate_fingerprint(b"a <= 5");
        let pred = |t: &pref_relation::Tuple| t[0] <= pref_relation::Value::from(5);

        // First derivation: a miss, cached under the lineage key.
        let d1 = r.select_derived(pred, fp);
        let (rows1, ex1) = q.execute(&d1).unwrap().into_parts();
        assert_eq!(ex1.cache, CacheStatus::Miss);
        assert_eq!(ex1.lineage, d1.lineage());

        // A *fresh* derivation of the same subset: new generation, same
        // lineage — served warm.
        let d2 = r.select_derived(pred, fp);
        assert_ne!(d1.generation(), d2.generation());
        let (rows2, ex2) = q.execute(&d2).unwrap().into_parts();
        assert_eq!(ex2.cache, CacheStatus::DerivedHit);
        assert_eq!(rows1, rows2);
        assert_eq!(rows2, sigma_naive_generic(&p, &d2).unwrap());
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.derived_hits, stats.misses), (1, 1, 1));

        // A different predicate over the same base is a different
        // subset: no cross-predicate reuse.
        let d3 = r.select_derived(|t| t[0] <= pref_relation::Value::from(2), fp ^ 1);
        let (rows3, ex3) = q.execute(&d3).unwrap().into_parts();
        assert_eq!(ex3.cache, CacheStatus::Miss);
        assert_eq!(rows3, sigma_naive_generic(&p, &d3).unwrap());
    }

    #[test]
    fn an_exact_result_hit_rewarms_an_evicted_base_matrix() {
        // Two matrices fit: the base's, then two view matrices of other
        // terms push it out while its result stays cached.
        let engine = Engine::new().with_capacity(2);
        let r = sample();
        let p = pos("c", ["x"]).pareto(neg("c", ["z"]));
        let q = engine.prepare(&p, r.schema()).unwrap();
        let view = |fp: u64| r.select_derived(|t| t[0] <= pref_relation::Value::from(5), fp);
        assert_eq!(q.execute(&r).unwrap().cache(), CacheStatus::Miss);
        for other in [
            around("a", 3).pareto(lowest("b")),
            around("b", 6).pareto(lowest("a")),
        ] {
            let o = engine.prepare(&other, r.schema()).unwrap();
            assert_eq!(o.execute(&view(1)).unwrap().cache(), CacheStatus::Miss);
        }
        let misses = engine.cache_stats().misses;
        // The exact hit answers from the result tier and rebuilds the
        // base matrix, so the next view windows onto it again.
        assert_eq!(q.execute(&r).unwrap().cache(), CacheStatus::Hit);
        assert_eq!(engine.cache_stats().misses, misses + 1, "one rebuild");
        let (rows, ex) = q.execute(&view(2)).unwrap().into_parts();
        assert_eq!(ex.cache, CacheStatus::WindowHit);
        assert_eq!(rows, sigma_naive_generic(&p, &view(2)).unwrap());
        // Resident: a further exact hit builds nothing.
        assert_eq!(q.execute(&r).unwrap().cache(), CacheStatus::Hit);
        assert_eq!(engine.cache_stats().misses, misses + 1);
    }

    #[test]
    fn fresh_predicates_window_onto_the_warmed_base_matrix() {
        let engine = Engine::new();
        let r = sample();
        let p = pos("c", ["x"]).pareto(neg("c", ["z"]));
        let q = engine.prepare(&p, r.schema()).unwrap();

        // Warm the whole-base matrix.
        assert_eq!(q.execute(&r).unwrap().cache(), CacheStatus::Miss);

        // A *never-seen* predicate: no derived entry exists, but the
        // row-id view windows onto the base's cached matrix — warm on
        // its very first execution, no subset matrix built.
        let d = r.select_derived(
            |t| t[0] <= pref_relation::Value::from(5),
            pref_relation::predicate_fingerprint(b"a <= 5"),
        );
        let (rows, ex) = q.execute(&d).unwrap().into_parts();
        assert_eq!(ex.cache, CacheStatus::WindowHit);
        assert!(ex.cache.is_warm());
        assert_eq!(rows, sigma_naive_generic(&p, &d).unwrap());
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.window_hits, stats.misses, stats.entries),
            (1, 1, 1),
            "window hits must not build or insert subset matrices"
        );

        // Another fresh predicate over the same base — still warm.
        let d2 = r.select_derived(|t| t[0] >= pref_relation::Value::from(2), 0xbeef);
        let (rows2, ex2) = q.execute(&d2).unwrap().into_parts();
        assert_eq!(ex2.cache, CacheStatus::WindowHit);
        assert_eq!(rows2, sigma_naive_generic(&p, &d2).unwrap());

        // Stacked derivations window onto the *root* base.
        let dd = d.take_rows_derived(&[0, 1], 0x77);
        let (rows3, ex3) = q.execute(&dd).unwrap().into_parts();
        assert_eq!(ex3.cache, CacheStatus::WindowHit);
        assert_eq!(rows3, sigma_naive_generic(&p, &dd).unwrap());

        // The view shares the base's tuple storage: re-derivation was
        // O(k) id construction, not a copy.
        assert!(d.shares_storage_with(&r));
        assert_eq!(d.row_ids().map(<[u32]>::len), Some(d.len()));
    }

    #[test]
    fn base_mutation_severs_windows() {
        let engine = Engine::new();
        let mut r = sample();
        let p = pos("c", ["x"]).pareto(neg("c", ["z"]));
        let q = engine.prepare(&p, r.schema()).unwrap();
        q.execute(&r).unwrap(); // warm the base matrix

        let pred = |t: &pref_relation::Tuple| t[0] <= pref_relation::Value::from(5);
        assert_eq!(
            q.execute(&r.select_derived(pred, 9)).unwrap().cache(),
            CacheStatus::WindowHit
        );

        // Mutation moves the base generation: views derived from the new
        // state root there, where no matrix is cached — they must
        // rebuild, not window onto the stale matrix.
        r.push_values(vec![
            pref_relation::Value::from(0),
            pref_relation::Value::from(0),
            pref_relation::Value::from("x"),
        ])
        .unwrap();
        let d = r.select_derived(pred, 9);
        let (rows, ex) = q.execute(&d).unwrap().into_parts();
        assert_eq!(ex.cache, CacheStatus::Miss, "stale window must not serve");
        assert_eq!(rows, sigma_naive_generic(&p, &d).unwrap());

        // Mutating the *view* severs its lineage — and its window.
        q.execute(&r).unwrap(); // warm the new base state
        let mut dv = r.select_derived(pred, 9);
        dv.delete_row(0);
        assert!(dv.window_ids().is_none());
        let (rows, ex) = q.execute(&dv).unwrap().into_parts();
        assert_eq!(ex.cache, CacheStatus::Miss);
        assert_eq!(rows, sigma_naive_generic(&p, &dv).unwrap());
    }

    #[test]
    fn derived_entries_take_precedence_over_windows() {
        // Resolution order is exact → derived → window: a subset whose
        // own matrix was cached (lineage route) keeps using it even once
        // the base matrix is warm.
        let engine = Engine::new();
        let r = sample();
        let p = pos("c", ["x"]).pareto(neg("c", ["z"]));
        let q = engine.prepare(&p, r.schema()).unwrap();
        let pred = |t: &pref_relation::Tuple| t[0] <= pref_relation::Value::from(5);

        // Cold base: the first derivation builds and caches a subset
        // matrix under its lineage key.
        assert_eq!(
            q.execute(&r.select_derived(pred, 5)).unwrap().cache(),
            CacheStatus::Miss
        );
        q.execute(&r).unwrap(); // now warm the base too
        let (_, ex) = q.execute(&r.select_derived(pred, 5)).unwrap().into_parts();
        assert_eq!(
            ex.cache,
            CacheStatus::DerivedHit,
            "the subset's own matrix wins over the window route"
        );
    }

    #[test]
    fn groupby_windows_onto_cached_base_matrices() {
        let engine = Engine::new();
        let r = sample();
        let p = around("a", 2).pareto(lowest("b"));
        let attrs = pref_relation::AttrSet::new(["c"]);

        // Warm the base matrix through the grouped term itself.
        let q = engine.prepare(&p, r.schema()).unwrap();
        let q = q.grouped(&attrs).unwrap();
        let base_rows = q.execute(&r).unwrap().into_rows();
        assert_eq!(engine.cache_stats().misses, 1);

        // Grouped evaluation over a fresh derived view reuses it via a
        // window instead of building a subset matrix.
        let d = r.select_derived(|_| true, 0x51);
        let (grouped, ex) = q.execute(&d).unwrap().into_parts();
        assert_eq!((grouped, ex.cache), (base_rows, CacheStatus::WindowHit));
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.window_hits, stats.misses),
            (1, 1),
            "groupby over the view must window, not rebuild"
        );
    }

    #[test]
    fn base_mutation_invalidates_derived_entries() {
        let engine = Engine::new();
        let mut r = sample();
        let p = pos("c", ["x"]).pareto(neg("c", ["z"]));
        let q = engine.prepare(&p, r.schema()).unwrap();
        let fp = 99;
        let pred = |t: &pref_relation::Tuple| t[2] != pref_relation::Value::from("y");

        q.execute(&r.select_derived(pred, fp)).unwrap();
        assert_eq!(
            q.execute(&r.select_derived(pred, fp)).unwrap().cache(),
            CacheStatus::DerivedHit
        );

        // Mutating the base moves its generation: the re-derived view is
        // rooted in a new state, so the old entry is unreachable.
        r.push_values(vec![Value::from(0), Value::from(0), Value::from("x")])
            .unwrap();
        let d = r.select_derived(pred, fp);
        let (rows, ex) = q.execute(&d).unwrap().into_parts();
        assert_eq!(ex.cache, CacheStatus::Miss, "new base state must rebuild");
        assert_eq!(rows, sigma_naive_generic(&p, &d).unwrap());
    }

    #[test]
    fn groupby_honors_the_ablation_knob() {
        let engine = Engine::with_optimizer(Optimizer::new().without_materialization());
        let r = sample();
        let p = around("a", 2).pareto(lowest("b"));
        let attrs = pref_relation::AttrSet::new(["c"]);
        let grouped = |e: &Engine| {
            let q = e.prepare(&p, r.schema())?.grouped(&attrs)?;
            Ok::<_, QueryError>(q.execute(&r)?.into_rows())
        };
        let rows = grouped(&engine).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (0, 0, 0),
            "no_materialize groupby must not touch the matrix cache"
        );
        assert_eq!(rows, grouped(&Engine::new()).unwrap());
    }

    #[test]
    fn forced_and_ablated_configurations_flow_through() {
        let r = sample();
        let p = pos("c", ["x"]).pareto(neg("c", ["z"]));
        let oracle = sigma_naive_generic(&p, &r).unwrap();

        let ablated = Engine::with_optimizer(Optimizer::new().without_materialization());
        let q = ablated.prepare(&p, r.schema()).unwrap();
        let (rows, ex) = q.execute(&r).unwrap().into_parts();
        assert_eq!(rows, oracle);
        assert!(!ex.materialized);
        assert_eq!(ex.cache, CacheStatus::Bypass);

        let forced = Engine::with_optimizer(Optimizer::new().with_algorithm(Algorithm::Naive));
        let q = forced.prepare(&p, r.schema()).unwrap();
        assert_eq!(q.execute(&r).unwrap().into_rows(), oracle);
    }
}
