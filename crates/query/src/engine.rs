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
//! * the [`Explain`] of each execution reports the cache outcome
//!   ([`CacheStatus`]) and the generation it ran against, so callers can
//!   assert amortization instead of guessing.
//!
//! The engine is cheaply clonable (all state behind an `Arc`) and
//! thread-safe; a [`Prepared`] holds a handle to its engine, so prepared
//! queries stay valid wherever they are sent.
//!
//! Concurrency: the matrix cache is split into 16 fingerprint-keyed
//! read/write-locked shards (`CACHE_SHARDS`), so the warm path
//! (exact / derived / window lookups) takes exactly one shard's *read*
//! lock — concurrent sessions executing different prepared queries
//! never touch the same lock, and sessions repeating the same query
//! share a read lock that admits them all at once. Cache statistics are
//! plain atomics ([`Engine::cache_stats`] is lock-free). Only cold
//! builds and incremental rebuilds take a write lock, and only to
//! insert the finished matrix — materialization itself always runs
//! outside every lock.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use pref_core::algebra::{simplify, simplify_traced};
use pref_core::eval::{CompiledPref, MatrixWindow, ScoreMatrix};
use pref_core::term::Pref;
use pref_core::CoreError;
use pref_relation::{AttrSet, ColumnStats, Relation, RelationError, Schema, Value};

use crate::error::QueryError;
use crate::optimizer::{run_algorithm, Algorithm, CacheStatus, Explain, Optimizer};
use crate::plan::{self, Plan, SemanticInfo, StatsView, PLANNER_REPLAN_DRIFT};

/// Default number of cached score matrices per engine.
const DEFAULT_CAPACITY: usize = 64;

/// Bound on the engine's per-generation [`ColumnStats`] snapshots. A
/// snapshot is a per-column value-count map — far smaller than a matrix
/// but not free; 64 generations comfortably covers the live relations
/// of a session while keeping the worst case bounded.
const STATS_CAPACITY: usize = 64;

/// Number of lock shards the matrix cache is split over (power of two).
///
/// Every cache key a single lookup can probe — exact generation, derived
/// lineage, window base, delta base — embeds the same *term fingerprint*,
/// so sharding by fingerprint keeps a whole lookup inside one shard: one
/// read-lock acquisition resolves every tier, and lookups for *different*
/// terms never contend on the same lock. Concurrent sessions executing
/// distinct prepared queries therefore scale with cores instead of
/// convoying on a global mutex; same-term readers still proceed in
/// parallel because the shard lock is a read/write lock and warm hits
/// only ever take the read side.
const CACHE_SHARDS: usize = 16;

/// The shard a term fingerprint's cache entries live in. Fingerprints
/// are already well-mixed 64-bit hashes; fold the high half in so the
/// shard index uses all of them.
pub(crate) fn cache_shard_of(fp: u64) -> usize {
    ((fp ^ (fp >> 32)) as usize) & (CACHE_SHARDS - 1)
}

/// `lock_diag` group name of the matrix-cache shard locks.
///
/// Only the cache shards are tagged — not every lock in the process —
/// because the concurrency contract is specifically "builds run outside
/// the *engine's cache* locks": a server session legitimately holds the
/// catalog's read lock across a whole statement execution, matrix
/// builds included.
const MATRIX_CACHE_GROUP: &str = "pref-query/matrix-cache";

/// Marker for the start of a matrix materialization: under
/// `--cfg lock_diag` builds, panics if the calling thread still holds
/// any matrix-cache shard lock — the cheapest possible proof that the
/// expensive build really runs outside the engine's cache locks
/// (concurrent warm hits on other terms are never blocked by a build).
/// Compiled to nothing otherwise.
#[inline]
fn build_scope() {
    parking_lot::lock_diag::assert_group_free(MATRIX_CACHE_GROUP);
}

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
    /// Executions served by an *incremental shard rebuild*: the relation
    /// mutated, but its [`Delta`](pref_relation::Delta) matched a cached
    /// prior state, so only the affected shards were recomputed
    /// ([`CacheStatus::ShardHit`]). Counted separately from both `hits`
    /// (some keys were built) and `misses` (most were not).
    pub shard_hits: u64,
    /// Executions served by *maintaining* a cached BMO result across a
    /// mutation ([`CacheStatus::MaintainedHit`]): the changed rows were
    /// classified against the previous skyline instead of re-running the
    /// algorithm — no matrix was consulted at all. Counted separately
    /// from `hits` (the result was patched, not served verbatim) and
    /// from `shard_hits` (no matrix shard was rebuilt either).
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
/// views key by their [`Lineage`] so a *re-derivation* of the same subset
/// (fresh generation, equal lineage) still finds the matrix. Both key
/// kinds embed the term fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MatrixKey {
    /// `(relation generation, term fingerprint)`.
    Generation(u64, u64),
    /// `(base generation, predicate fingerprint, term fingerprint)`.
    Derived(u64, u64, u64),
}

impl MatrixKey {
    /// The term fingerprint embedded in every key kind — the shard
    /// selector.
    fn fingerprint(self) -> u64 {
        match self {
            MatrixKey::Generation(_, fp) | MatrixKey::Derived(_, _, fp) => fp,
        }
    }

    fn shard(self) -> usize {
        cache_shard_of(self.fingerprint())
    }
}

struct CacheEntry {
    matrix: Arc<ScoreMatrix>,
    /// LRU stamp, atomic so the read-locked hit path can refresh it
    /// without upgrading to a write lock.
    last_used: AtomicU64,
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
    /// What the producing execution reported — replayed on exact hits
    /// so an `Explain` served from the result tier describes the
    /// backend that actually computed the rows.
    materialized: bool,
    explicit_bitsets: bool,
}

struct ResultEntry {
    state: Arc<ResultState>,
    /// LRU stamp, same contract as [`CacheEntry::last_used`].
    last_used: AtomicU64,
}

/// One lock shard of the engine cache: matrices and maintained results
/// side by side (both keyed by term fingerprint, so one read-lock
/// acquisition resolves every tier of a lookup). All cross-shard state
/// (stats, LRU clock, resident counts) lives in atomics on
/// [`EngineInner`].
#[derive(Default)]
struct CacheShard {
    map: HashMap<MatrixKey, CacheEntry>,
    /// Maintained results, keyed `(relation generation, term
    /// fingerprint)`. Results key by generation only — a result is a
    /// tiny `Vec<u32>`, so caching per exact content state (rather than
    /// per lineage) is cheap, and the maintenance classifier reaches
    /// prior states through the relation's delta anyway.
    results: HashMap<(u64, u64), ResultEntry>,
}

struct EngineInner {
    optimizer: Optimizer,
    capacity: usize,
    /// The matrix cache, split into [`CACHE_SHARDS`] read/write-locked
    /// shards keyed by term fingerprint ([`cache_shard_of`]). Warm
    /// lookups take one shard's *read* lock; only inserts and evictions
    /// take a write lock, and never more than one shard lock at a time.
    shards: Vec<RwLock<CacheShard>>,
    /// Global LRU clock (monotone; ties are harmless).
    tick: AtomicU64,
    /// Matrices currently resident across all shards — maintained on
    /// insert/evict/clear so [`Engine::cache_stats`] never takes a lock.
    resident: AtomicUsize,
    /// Maintained results currently resident across all shards, bounded
    /// by the same `capacity` but counted (and evicted) independently:
    /// a result is orders of magnitude smaller than a matrix, so one
    /// must never evict the other.
    resident_results: AtomicUsize,
    hits: AtomicU64,
    derived_hits: AtomicU64,
    window_hits: AtomicU64,
    shard_hits: AtomicU64,
    maintained_hits: AtomicU64,
    misses: AtomicU64,
    /// Per-relation column statistics, keyed by relation generation and
    /// advanced *incrementally* over each relation's
    /// [`Delta`](pref_relation::Delta) ([`ColumnStats::advance`]) — the
    /// planner's Def. 18 cardinality inputs. Never held across a matrix
    /// build or another lock: probes read-lock, computation runs
    /// unlocked, inserts write-lock.
    stats: RwLock<HashMap<u64, Arc<ColumnStats>>>,
}

impl EngineInner {
    /// Insert `m` under `key`, then LRU-evict until the *global*
    /// capacity holds. The insert write-locks exactly one shard; the
    /// eviction scan acquires one shard lock at a time (so concurrent
    /// inserters can never deadlock on each other), which means resident
    /// can transiently overshoot `capacity` under contention — bounded
    /// by the number of concurrent inserters, and immediately repaired.
    fn insert_bounded(&self, key: MatrixKey, m: &Arc<ScoreMatrix>) {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut shard = self.shards[key.shard()].write();
            if shard
                .map
                .insert(
                    key,
                    CacheEntry {
                        matrix: Arc::clone(m),
                        last_used: AtomicU64::new(tick),
                    },
                )
                .is_none()
            {
                // Relaxed: `resident` is an advisory count driving the
                // eviction loop; the shard write lock orders the map
                // itself, and the loop re-checks under that lock.
                self.resident.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Relaxed: transient over/undershoot only delays or repeats an
        // eviction pass; every structural decision re-checks under the
        // victim shard's write lock below.
        while self.resident.load(Ordering::Relaxed) > self.capacity {
            // Find the globally least-recently-used entry, one shard at
            // a time, then re-check under that shard's write lock: if
            // the entry was touched (or evicted) in between, retry
            // rather than evict a freshly used matrix.
            let mut victim: Option<(usize, MatrixKey, u64)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                let shard = shard.read();
                for (k, e) in &shard.map {
                    // Relaxed: a stale LRU stamp can only mis-rank the
                    // victim; the write-locked re-check below catches it.
                    let lu = e.last_used.load(Ordering::Relaxed);
                    if victim.is_none_or(|(_, _, best)| lu < best) {
                        victim = Some((i, *k, lu));
                    }
                }
            }
            let Some((i, k, lu)) = victim else { break };
            let mut shard = self.shards[i].write();
            match shard.map.get(&k) {
                // Relaxed: this re-read runs under the shard write lock,
                // which orders it against every touch of the entry.
                Some(e) if e.last_used.load(Ordering::Relaxed) == lu => {
                    shard.map.remove(&k);
                    // Relaxed: advisory count, see insert above.
                    self.resident.fetch_sub(1, Ordering::Relaxed);
                }
                _ => continue,
            }
        }
    }

    /// [`EngineInner::insert_bounded`] for the result tier: same
    /// one-shard-lock-at-a-time insert + LRU eviction discipline, over
    /// the `results` maps and their own resident counter.
    fn insert_result_bounded(&self, key: (u64, u64), state: &Arc<ResultState>) {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut shard = self.shards[cache_shard_of(key.1)].write();
            if shard
                .results
                .insert(
                    key,
                    ResultEntry {
                        state: Arc::clone(state),
                        last_used: AtomicU64::new(tick),
                    },
                )
                .is_none()
            {
                // Relaxed: advisory count, exactly like `resident` in
                // `insert_bounded` — the loop re-checks under the lock.
                self.resident_results.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Relaxed: see `insert_bounded` — transient skew only delays or
        // repeats an eviction pass.
        while self.resident_results.load(Ordering::Relaxed) > self.capacity {
            let mut victim: Option<(usize, (u64, u64), u64)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                let shard = shard.read();
                for (k, e) in &shard.results {
                    // Relaxed: a stale LRU stamp can only mis-rank the
                    // victim; the write-locked re-check catches it.
                    let lu = e.last_used.load(Ordering::Relaxed);
                    if victim.is_none_or(|(_, _, best)| lu < best) {
                        victim = Some((i, *k, lu));
                    }
                }
            }
            let Some((i, k, lu)) = victim else { break };
            let mut shard = self.shards[i].write();
            match shard.results.get(&k) {
                // Relaxed: re-read under the shard write lock, which
                // orders it against every touch of the entry.
                Some(e) if e.last_used.load(Ordering::Relaxed) == lu => {
                    shard.results.remove(&k);
                    // Relaxed: advisory count, see above.
                    self.resident_results.fetch_sub(1, Ordering::Relaxed);
                }
                _ => continue,
            }
        }
    }
}

impl fmt::Debug for EngineInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("optimizer", &self.optimizer)
            .field("capacity", &self.capacity)
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
    pub fn with_optimizer(optimizer: Optimizer) -> Self {
        Engine {
            inner: Arc::new(EngineInner {
                optimizer,
                capacity: DEFAULT_CAPACITY,
                shards: (0..CACHE_SHARDS)
                    .map(|_| {
                        let shard: RwLock<CacheShard> = RwLock::default();
                        // Tag for lock_diag builds: `build_scope` asserts
                        // this group free before any materialization.
                        shard.diag_set_group(MATRIX_CACHE_GROUP);
                        shard
                    })
                    .collect(),
                tick: AtomicU64::new(0),
                resident: AtomicUsize::new(0),
                resident_results: AtomicUsize::new(0),
                hits: AtomicU64::new(0),
                derived_hits: AtomicU64::new(0),
                window_hits: AtomicU64::new(0),
                shard_hits: AtomicU64::new(0),
                maintained_hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                stats: RwLock::default(),
            }),
        }
    }

    /// Bound the matrix cache to `capacity` entries (LRU eviction).
    /// `0` disables caching: every execution rebuilds its matrix.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        // Engines are only configured before being shared; keep the
        // builder ergonomic without an extra config struct.
        Arc::get_mut(&mut self.inner)
            .expect("with_capacity is a builder call, before the engine is shared")
            .capacity = capacity;
        self
    }

    /// The engine's optimizer configuration.
    pub fn optimizer(&self) -> &Optimizer {
        &self.inner.optimizer
    }

    /// Compile `pref` against `schema` once: algebraic rewrite
    /// (Prop. 2–4, sound by Prop. 7), attribute resolution, fingerprint.
    /// The returned [`Prepared`] can be executed any number of times
    /// against relations with the same schema.
    pub fn prepare(&self, pref: &Pref, schema: &Schema) -> Result<Prepared, QueryError> {
        let original = pref.to_string();
        let (simplified, trace) = simplify_traced(pref);
        let simplified_str = simplified.to_string();
        let compiled = CompiledPref::compile(&simplified, schema)?;
        let fingerprint = compiled.fingerprint();
        let param_slots = compiled.param_slots();
        // Schema-level planning happens once, here: fold the rewrite
        // trace into derivation steps and decide redundancy from the
        // schema's constraint registry. The relation-level half (stats,
        // cost ranking) is computed lazily on first execution.
        let semantic = Arc::new(SemanticInfo::analyze(&simplified, schema, trace));
        Ok(Prepared {
            engine: self.clone(),
            rewritten: simplified_str != original,
            original,
            simplified,
            simplified_str,
            compiled,
            fingerprint,
            param_slots,
            binding: None,
            schema: schema.clone(),
            semantic,
            plan_cell: Arc::new(Mutex::new(None)),
        })
    }

    /// The planner's statistics view of `r`: served from the
    /// per-generation snapshot cache when possible, advanced
    /// incrementally over the relation's delta when a predecessor
    /// snapshot exists, approximated by the base table's snapshot for
    /// derived views (their generations never recur, so exact per-view
    /// stats would be recomputed forever), and fully scanned otherwise.
    /// `None` means the state is a derived view whose base has no
    /// snapshot: scanning those per request costs more than
    /// stats-driven choice saves (a per-column scan of every
    /// WHERE-narrowed candidate set, keyed to a generation that never
    /// recurs), so the planner falls back to row-count heuristics.
    fn stats_for(&self, r: &Relation) -> Option<Arc<ColumnStats>> {
        let gen = r.generation();
        let prev: Option<Arc<ColumnStats>> = {
            let m = self.inner.stats.read();
            if let Some(s) = m.get(&gen) {
                return Some(Arc::clone(s));
            }
            // A snapshot of a recorded delta base can be advanced by
            // scanning only the appended suffix.
            let from_delta = r
                .delta()
                .and_then(|d| d.bases().iter().find_map(|(g, _)| m.get(g).cloned()));
            match from_delta {
                Some(s) => Some(s),
                // Derived view: approximate with the base's snapshot
                // (distinct counts are upper bounds; the planner caps
                // them at the view's row count).
                None => match r.lineage() {
                    Some(l) => {
                        if let Some(s) = m.get(&l.base_generation()) {
                            return Some(Arc::clone(s));
                        }
                        return None;
                    }
                    None => None,
                },
            }
        };
        // Compute outside every lock (the scan is O(rows · arity)).
        let s = Arc::new(ColumnStats::advance(prev.as_deref(), r));
        let mut m = self.inner.stats.write();
        if m.len() >= STATS_CAPACITY && !m.contains_key(&gen) {
            // Generations are monotone: evict the oldest half.
            let mut gens: Vec<u64> = m.keys().copied().collect();
            gens.sort_unstable();
            for g in &gens[..gens.len() / 2] {
                m.remove(g);
            }
        }
        m.insert(gen, Arc::clone(&s));
        Some(s)
    }

    /// `σ[P groupby A](R)` (Def. 16) on the columnar path: partition row
    /// ids once via [`Relation::group_ids`], then run the per-group BMO
    /// windows over the engine-cached score matrix, so the same matrix
    /// serves every group — and every later query on the same relation
    /// generation. Falls back to the generic term-walk backend when the
    /// term does not materialize (or the optimizer disables
    /// materialization).
    pub fn sigma_groupby(
        &self,
        pref: &Pref,
        group_attrs: &AttrSet,
        r: &Relation,
    ) -> Result<Vec<usize>, QueryError> {
        let group_cols = r.schema().resolve(group_attrs)?;
        let prepared = self.prepare(pref, r.schema())?;
        let (ids, n_groups) = r.group_ids(&group_cols);
        let matrix = prepared.matrix(r);

        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        for (i, &g) in ids.iter().enumerate() {
            members[g as usize].push(i);
        }

        let mut result = match &matrix {
            Some(m) => groupby_windows(&members, |x, y| m.better(x, y)),
            None => groupby_windows(&members, |x, y| {
                prepared.compiled.better(r.row(x), r.row(y))
            }),
        };
        result.sort_unstable();
        Ok(result)
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
            // Relaxed: same monitoring reads, just AtomicUsizes.
            entries: inner.resident.load(Ordering::Relaxed),
            result_entries: inner.resident_results.load(Ordering::Relaxed),
        }
    }

    /// Drop every cached matrix (counters survive). Clears one shard at
    /// a time; entries inserted concurrently into already-cleared shards
    /// survive, which is the same guarantee a single global lock gave a
    /// caller racing a concurrent insert.
    pub fn clear_cache(&self) {
        for shard in &self.inner.shards {
            let (removed, removed_results) = {
                let mut shard = shard.write();
                let n = shard.map.len();
                shard.map.clear();
                let nr = shard.results.len();
                shard.results.clear();
                (n, nr)
            };
            // Relaxed: advisory counts (see `insert_bounded`); the shard
            // write lock above ordered the actual map mutations.
            self.inner.resident.fetch_sub(removed, Ordering::Relaxed);
            self.inner
                .resident_results
                // Same rationale: advisory result-tier count.
                .fetch_sub(removed_results, Ordering::Relaxed);
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
    /// 4. for mutated relations carrying a [`Delta`](pref_relation::Delta),
    ///    any remembered prior content state with a resident matrix —
    ///    the matrix is rebuilt *incrementally*, recomputing only the
    ///    shards the mutation touched and carrying every clean shard's
    ///    key lanes over by reference ([`CacheStatus::ShardHit`]);
    /// 5. build ([`CacheStatus::Miss`]).
    ///
    /// Returns [`CacheStatus::Bypass`] when the term does not materialize
    /// on `r`, so callers can tell "reused" from "not applicable". A
    /// freshly built matrix is inserted (when caching is enabled):
    /// lineage-carrying relations under their lineage key
    /// (re-derivations recur), lineage-less relations under the
    /// generation key.
    fn cached_matrix(
        &self,
        fp: u64,
        c: &CompiledPref,
        r: &Relation,
    ) -> (Option<MatrixWindow>, CacheStatus) {
        let inner = &self.inner;
        let opt = &inner.optimizer;
        let threads = opt.effective_threads();
        let primary = MatrixKey::Generation(r.generation(), fp);
        let derived = r
            .lineage()
            .map(|l| MatrixKey::Derived(l.base_generation(), l.predicate(), fp));
        // A prior content state whose matrix is resident, found through
        // the relation's mutation delta — the incremental-rebuild seed,
        // resolved under the read lock but consumed outside it.
        let mut reusable: Option<(Arc<ScoreMatrix>, usize)> = None;
        if inner.capacity > 0 {
            // Relaxed: the LRU clock only needs to be monotone, not
            // ordered against any other memory — ties just mis-rank.
            let tick = inner.tick.fetch_add(1, Ordering::Relaxed) + 1;
            // Every probe below keys by the same term fingerprint, so the
            // whole multi-tier lookup resolves inside this one shard —
            // a single read-lock acquisition, shared with every other
            // concurrent reader of this term and independent of every
            // other term's shard.
            let shard = inner.shards[cache_shard_of(fp)].read();
            for (key, status) in std::iter::once((primary, CacheStatus::Hit))
                .chain(derived.map(|k| (k, CacheStatus::DerivedHit)))
            {
                if let Some(entry) = shard.map.get(&key) {
                    // Relaxed throughout this arm: the LRU stamp is
                    // advisory and the hit counters are statistics; the
                    // matrix Arc itself is ordered by the shard lock.
                    entry.last_used.store(tick, Ordering::Relaxed);
                    let matrix = Arc::clone(&entry.matrix);
                    inner.hits.fetch_add(1, Ordering::Relaxed); // statistic
                    if status == CacheStatus::DerivedHit {
                        // Relaxed: statistic, see above.
                        inner.derived_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    return (Some(MatrixWindow::full(matrix)), status);
                }
            }
            // Window tier: the subset itself was never materialized, but
            // its rows are (a subset of) the dense base's rows, and the
            // base's whole-relation matrix is resident — serve it through
            // row-id indirection instead of building a subset matrix.
            if let Some((base_gen, ids)) = r.window_ids() {
                let key = MatrixKey::Generation(base_gen, fp);
                if let Some(entry) = shard.map.get(&key) {
                    // The windowable invariant guarantees every id indexes
                    // the base's row space; keep a release-mode guard so a
                    // broken lineage contract degrades to a rebuild, never
                    // to out-of-range reads of someone else's matrix.
                    let rows = entry.matrix.len();
                    if ids.iter().all(|&i| (i as usize) < rows) {
                        // Relaxed: advisory LRU stamp + statistics,
                        // same contract as the exact-hit arm above.
                        entry.last_used.store(tick, Ordering::Relaxed);
                        let matrix = Arc::clone(&entry.matrix);
                        inner.hits.fetch_add(1, Ordering::Relaxed); // statistic
                                                                    // Relaxed: statistic, see above.
                        inner.window_hits.fetch_add(1, Ordering::Relaxed);
                        return (
                            Some(MatrixWindow::windowed(matrix, Arc::clone(ids))),
                            CacheStatus::WindowHit,
                        );
                    }
                }
            }
            // Shard tier: the relation mutated, but its delta names prior
            // content states it extends. If any of them has a resident
            // matrix of exactly the recorded prefix length, seed an
            // incremental rebuild from it: only the shards the mutation
            // touched are recomputed (outside the lock, below).
            //
            // Dense relations only: the incremental build is positional
            // (base state = unchanged storage prefix of `r`), and a
            // tombstone view carrying a delta shifts every position after
            // the victim — its deletes are served by the *result*
            // maintenance tier instead, and its matrices rebuild cold.
            if let Some(delta) = r.delta().filter(|_| r.row_ids().is_none()) {
                for &(base_gen, base_len) in delta.bases() {
                    let key = MatrixKey::Generation(base_gen, fp);
                    if let Some(entry) = shard.map.get(&key) {
                        if entry.matrix.len() == base_len {
                            // Relaxed: advisory LRU stamp, as above.
                            entry.last_used.store(tick, Ordering::Relaxed);
                            reusable = Some((Arc::clone(&entry.matrix), base_len));
                            break;
                        }
                    }
                }
            }
        }
        // Build outside any lock: materialization is the expensive part,
        // and concurrent executions of the same query should not serialize
        // on it (a duplicate build is wasted work, never wrong results).
        if let Some((prev, prefix_len)) = reusable {
            build_scope();
            let dirty = r.delta().map_or(&[][..], |d| d.dirty());
            if let Some(m) = c.score_matrix_incremental(r, &prev, prefix_len, dirty, threads) {
                let m = Arc::new(m);
                // Relaxed: statistic only.
                inner.shard_hits.fetch_add(1, Ordering::Relaxed);
                if inner.capacity > 0 {
                    inner.insert_bounded(derived.unwrap_or(primary), &m);
                }
                return (Some(MatrixWindow::full(m)), CacheStatus::ShardHit);
            }
        }
        build_scope();
        match c.score_matrix_with(r, threads, opt.shard_rows) {
            None => (None, CacheStatus::Bypass),
            Some(m) => {
                let m = Arc::new(m);
                // Count every fresh build, cached or not, so stats stay
                // consistent with the `Miss` the Explain reports.
                inner.misses.fetch_add(1, Ordering::Relaxed);
                if inner.capacity > 0 {
                    inner.insert_bounded(derived.unwrap_or(primary), &m);
                }
                (Some(MatrixWindow::full(m)), CacheStatus::Miss)
            }
        }
    }

    /// Probe the maintained-result tier for term fingerprint `fp` over
    /// `r`. Resolution order:
    ///
    /// 1. exact `(generation, fp)` — the previous execution's row set is
    ///    served verbatim ([`CacheStatus::Hit`]), replaying the backend
    ///    flags the producing execution reported;
    /// 2. a prior content state out of `r`'s
    ///    [`Delta`](pref_relation::Delta) has a cached result — the
    ///    maintenance classifier patches it against the delta
    ///    ([`CacheStatus::MaintainedHit`]): unchanged result members
    ///    stay, appended/updated rows are BNL-inserted against the old
    ///    skyline, and any change touching a result member falls
    ///    through to a full recompute.
    ///
    /// Returns `(rows, status, materialized, explicit_bitsets)`, or
    /// `None` when the tier cannot answer (disabled, cold, or the
    /// classifier bailed) — callers then run the normal matrix/algorithm
    /// path.
    fn cached_result(
        &self,
        fp: u64,
        c: &CompiledPref,
        r: &Relation,
    ) -> Option<(Vec<usize>, CacheStatus, bool, bool)> {
        let inner = &self.inner;
        if inner.capacity == 0 || inner.optimizer.no_result_cache {
            return None;
        }
        // Relaxed: LRU clock, monotone is enough (see `cached_matrix`).
        let tick = inner.tick.fetch_add(1, Ordering::Relaxed) + 1;
        // Exact and delta probes key by the same fingerprint, so the
        // whole lookup stays inside one shard read lock; the maintenance
        // work itself (dominance tests over tuples) runs outside it.
        let mut seed: Option<(Arc<ResultState>, usize)> = None;
        {
            let shard = inner.shards[cache_shard_of(fp)].read();
            if let Some(entry) = shard.results.get(&(r.generation(), fp)) {
                // Relaxed: advisory LRU stamp + statistics, exactly like
                // the matrix hit arms.
                entry.last_used.store(tick, Ordering::Relaxed);
                let state = Arc::clone(&entry.state);
                drop(shard);
                inner.hits.fetch_add(1, Ordering::Relaxed); // statistic
                let rows = state.rows.iter().map(|&p| p as usize).collect();
                return Some((
                    rows,
                    CacheStatus::Hit,
                    state.materialized,
                    state.explicit_bitsets,
                ));
            }
            if let Some(delta) = r.delta() {
                for (k, &(g, _)) in delta.bases().iter().enumerate() {
                    if let Some(entry) = shard.results.get(&(g, fp)) {
                        // Relaxed: advisory LRU stamp.
                        entry.last_used.store(tick, Ordering::Relaxed);
                        seed = Some((Arc::clone(&entry.state), k));
                        break;
                    }
                }
            }
        }
        let (state, base_idx) = seed?;
        let rows = self.maintain_result(c, r, &state, base_idx)?;
        // Relaxed: statistic only.
        inner.maintained_hits.fetch_add(1, Ordering::Relaxed);
        if r.len() <= u32::MAX as usize {
            inner.insert_result_bounded(
                (r.generation(), fp),
                &Arc::new(ResultState {
                    rows: rows.iter().map(|&p| p as u32).collect(),
                    // The maintained rows were classified by tuple-level
                    // dominance tests, not a matrix backend.
                    materialized: false,
                    explicit_bitsets: false,
                }),
            );
        }
        Some((rows, CacheStatus::MaintainedHit, false, false))
    }

    /// The maintenance classifier (Chomicki's incremental-skyline
    /// argument, PAPERS.md): for a finite strict partial order,
    /// `max(P, A ∪ B) = max(P, max(P, A) ∪ B)` — and when no member of
    /// `max(P, A)` was changed or deleted, the old maxima of the
    /// unchanged rows stay maximal (every non-maximal old row was
    /// dominated by a *surviving* maximal one). So maintenance reduces
    /// to BNL-inserting only the changed rows into the previous result
    /// window: `O(|changed| · |result|)` dominance tests, no pass over
    /// the relation and no matrix walk.
    ///
    /// `prev` is the cached result at `r.delta().bases()[base_idx]`;
    /// positions are translated through the delta's storage-space
    /// claims (tombstone watermarks, see
    /// [`Delta`](pref_relation::Delta)). Returns `None` when
    /// classification cannot decide — a result member is dirty or
    /// tombstoned, or the delta's claims don't map onto the current
    /// view — and the caller recomputes from scratch (this is also how
    /// deletes re-promote previously dominated rows).
    fn maintain_result(
        &self,
        c: &CompiledPref,
        r: &Relation,
        prev: &ResultState,
        base_idx: usize,
    ) -> Option<Vec<usize>> {
        let delta = r.delta()?;
        let (_, base_len) = delta.bases()[base_idx];
        let since = delta.deleted_since(base_idx);
        let t = delta.deleted().len() - since.len();
        // Storage length at the base state: its visible rows were
        // storage `0..s_g` minus the `t` tombstones recorded before it.
        let s_g = base_len + t;
        let dirty = delta.dirty();

        // Translate the cached result's *positions* (at the base state)
        // into *storage ids*. With no prior tombstones the two spaces
        // coincide; otherwise enumerate the visible-at-base sequence.
        let old_ids: Vec<u32> = if t == 0 {
            prev.rows.clone()
        } else {
            let before = &delta.deleted()[..t];
            let visible: Vec<u32> = (0..s_g as u32).filter(|id| !before.contains(id)).collect();
            // A position past the visible set means the delta's claims
            // don't describe the cached state — recompute.
            prev.rows
                .iter()
                .map(|&p| visible.get(p as usize).copied())
                .collect::<Option<Vec<u32>>>()?
        };

        // A changed or vanished result member breaks the
        // survivors-stay-maximal argument: bail to a full recompute.
        if old_ids
            .iter()
            .any(|id| dirty.contains(id) || since.contains(id))
        {
            return None;
        }

        // Map the surviving result onto current positions, and collect
        // the candidate rows (appended or updated since the base) that
        // must be classified against it.
        let mut window: Vec<usize>;
        let mut candidates: Vec<usize> = Vec::new();
        match r.row_ids() {
            None => {
                // Dense: positions are storage ids, and a dense relation
                // cannot carry tombstones (flattening clears the delta).
                if t != 0 || !since.is_empty() {
                    return None;
                }
                window = old_ids.iter().map(|&id| id as usize).collect();
                candidates.extend(s_g..r.len());
                for &d in dirty {
                    if (d as usize) < s_g && !old_ids.contains(&d) {
                        candidates.push(d as usize);
                    }
                }
            }
            Some(ids) => {
                // Delete-chain view: ids are ascending storage ids (the
                // dense prefix minus tombstones), so binary search maps
                // each survivor; an unmapped survivor means the claims
                // are broken — recompute.
                window = Vec::with_capacity(old_ids.len());
                for &id in &old_ids {
                    window.push(ids.binary_search(&id).ok()?);
                }
                for (p, &id) in ids.iter().enumerate() {
                    if (id as usize) >= s_g || (dirty.contains(&id) && !old_ids.contains(&id)) {
                        candidates.push(p);
                    }
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();

        // BNL-insert every candidate against the maintained window. The
        // compiled term's `better(x, y)` ("y is better than x") is the
        // only dominance test used — the same comparator a recompute
        // would run, so equal tuples, Prior chains and EXPLICIT orders
        // all classify identically.
        'next: for cand in candidates {
            let ct = r.row(cand);
            let mut j = 0;
            while j < window.len() {
                let wt = r.row(window[j]);
                if c.better(ct, wt) {
                    // A window member beats the candidate: discard it.
                    continue 'next;
                }
                if c.better(wt, ct) {
                    // The candidate beats a previous maximum: prune it.
                    window.swap_remove(j);
                } else {
                    j += 1;
                }
            }
            window.push(cand);
        }
        window.sort_unstable();
        Some(window)
    }

    /// The cached (or freshly built and cached) score matrix view for
    /// `pref` over `r`, or `None` when the term does not materialize on
    /// `r` (or materialization is disabled). This is the handle the
    /// decomposition evaluator and the quality machinery use to run
    /// their per-tuple work on the columnar backend the preference stage
    /// already paid for — possibly a [`MatrixWindow`] onto the base's
    /// cached matrix when `r` is a row-id view.
    pub fn matrix_for(
        &self,
        pref: &Pref,
        r: &Relation,
    ) -> Result<Option<MatrixWindow>, QueryError> {
        Ok(self.prepare(pref, r.schema())?.matrix(r))
    }
}

/// Per-group BNL windows over pre-partitioned (global) row ids, with a
/// pluggable dominance backend — the shared inner loop of the columnar
/// `groupby` path.
fn groupby_windows(members: &[Vec<usize>], better: impl Fn(usize, usize) -> bool) -> Vec<usize> {
    let mut result = Vec::new();
    for group in members {
        let mut window: Vec<usize> = Vec::new();
        'next: for &i in group {
            let mut j = 0;
            while j < window.len() {
                if better(i, window[j]) {
                    continue 'next;
                }
                if better(window[j], i) {
                    window.swap_remove(j);
                } else {
                    j += 1;
                }
            }
            window.push(i);
        }
        result.extend(window);
    }
    result
}

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
/// serves its executions.
///
/// A query prepared from a term containing parameterized shapes
/// (`$n` slots, [`pref_core::param::ParamBase`]) is a **shape**: its
/// fingerprint is the shape fingerprint, stable across bindings, and it
/// cannot execute until [`Prepared::bind`] patches the slots with
/// concrete values — a cheap clone-and-patch that re-uses the compiled
/// column resolution and equality-projection layouts verbatim.
#[derive(Debug, Clone)]
pub struct Prepared {
    engine: Engine,
    original: String,
    simplified: Pref,
    simplified_str: String,
    rewritten: bool,
    compiled: CompiledPref,
    fingerprint: u64,
    /// `$n` slots still unbound (sorted, deduplicated; empty = concrete).
    param_slots: Vec<usize>,
    /// Set when this query came out of [`Prepared::bind`]: the shape's
    /// fingerprint plus the bound values, reported through [`Explain`].
    binding: Option<(u64, Vec<Value>)>,
    schema: Schema,
    /// Schema-level planning, computed once at prepare: the rewrite
    /// derivation trace plus the constraint-registry semantic verdict.
    semantic: Arc<SemanticInfo>,
    /// The relation-level [`Plan`] of the most recent execution, shared
    /// across clones. Replaced lazily when the statistics drift past
    /// [`PLANNER_REPLAN_DRIFT`]; the guard is never held across stats
    /// computation, matrix builds, or any other lock.
    plan_cell: Arc<Mutex<Option<Arc<Plan>>>>,
}

impl Prepared {
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

    /// Does this query still contain unbound `$n` slots? Such a *shape*
    /// must be [`Prepared::bind`]-ed before execution.
    pub fn has_params(&self) -> bool {
        !self.param_slots.is_empty()
    }

    /// The unbound slot indices (sorted, deduplicated).
    pub fn param_slots(&self) -> &[usize] {
        &self.param_slots
    }

    /// The shape fingerprint this query's bindings share: for a bound
    /// query, the fingerprint of the shape it was bound from; for an
    /// unbound shape, its own fingerprint. `None` for queries prepared
    /// directly from concrete terms.
    pub fn shape_fingerprint(&self) -> Option<u64> {
        match &self.binding {
            Some((fp, _)) => Some(*fp),
            None if self.has_params() => Some(self.fingerprint),
            None => None,
        }
    }

    /// Patch every `$n` slot with `values[n - 1]`, producing a concrete,
    /// executable query. On the fast path the compiled node tree is
    /// cloned and patched in place — resolved columns, equality
    /// projections and the algebraic rewrite are all reused; cost is
    /// O(term nodes), independent of the original statement size. The
    /// bound query's fingerprint equals a fresh prepare of the bound
    /// term, so repeated executions of the same binding hit the engine's
    /// matrix cache exactly like inline literals would — including when
    /// the binding makes previously distinct slots equal (`$1 = $2`
    /// turning `P ⊗ P` collapsible): a cheap re-simplification check
    /// detects that case and recompiles the reduced term instead of
    /// keeping the unreduced patch.
    ///
    /// Binding a query with no slots returns a plain clone. A too-short
    /// binding fails with [`CoreError::UnboundSlot`]; a value that cannot
    /// inhabit its slot fails with [`CoreError::BadBinding`].
    pub fn bind(&self, values: &[Value]) -> Result<Prepared, QueryError> {
        if !self.has_params() {
            return Ok(self.clone());
        }
        let shape_fp = self
            .binding
            .as_ref()
            .map_or(self.fingerprint, |(fp, _)| *fp);
        let bound = self.simplified.bind_params(values)?;
        // Binding can introduce syntactic equalities the shape didn't
        // have; only then does the slot patch diverge from a fresh
        // prepare, and only then do we pay a recompilation.
        let resimplified = simplify(&bound);
        let (simplified, rewritten, compiled) = if resimplified == bound {
            (bound, self.rewritten, self.compiled.bind(values)?)
        } else {
            let compiled = CompiledPref::compile(&resimplified, &self.schema)?;
            (resimplified, true, compiled)
        };
        let fingerprint = compiled.fingerprint();
        // Re-analyze on the bound term: binding can change redundancy
        // (a slot value may land inside/outside a declared domain), and
        // the shape's trace talks about slot placeholders. The binding
        // path's own re-simplification is not re-traced — its laws are
        // the ones `simplify_traced` would record on the bound term.
        let semantic = Arc::new(SemanticInfo::analyze(&simplified, &self.schema, Vec::new()));
        Ok(Prepared {
            engine: self.engine.clone(),
            original: self.original.clone(),
            simplified_str: simplified.to_string(),
            simplified,
            rewritten,
            compiled,
            fingerprint,
            param_slots: Vec::new(),
            binding: Some((shape_fp, values.to_vec())),
            schema: self.schema.clone(),
            semantic,
            plan_cell: Arc::new(Mutex::new(None)),
        })
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
        if self.engine.inner.optimizer.no_materialize {
            return None;
        }
        self.engine
            .cached_matrix(self.fingerprint, &self.compiled, r)
            .0
    }

    /// The relation-level [`Plan`] of this query over `r`: reuses the
    /// cached plan while the row count stays within
    /// `PLANNER_REPLAN_DRIFT` (2×) of the planned snapshot (the cost
    /// ranking cannot flip on smaller drift), replans otherwise.
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
        // Plan (and fetch stats) outside the cell guard: planning takes
        // the engine's stats lock and may scan the relation.
        let plan = Arc::new(self.compute_plan(r));
        *self.plan_cell.lock() = Some(Arc::clone(&plan));
        plan
    }

    fn compute_plan(&self, r: &Relation) -> Plan {
        let opt = &self.engine.inner.optimizer;
        if self.semantic.redundant && opt.force.is_none() {
            // Redundant winnow: no stats, no cost table — nothing runs.
            return Plan {
                steps: self.semantic.steps.clone(),
                constraints_used: self.semantic.constraints_used.clone(),
                redundant: true,
                rows: r.len(),
                generation: r.generation(),
                estimated_result: r.len() as f64,
                estimates: Vec::new(),
                algorithm: Algorithm::Elided,
                reason: "winnow eliminated: registered integrity constraints prove \
                         σ[P](R) = R — zero algorithm runs"
                    .to_string(),
            };
        }
        // Derived views plan from their base's snapshot, or from the
        // row count alone — see [`Engine::stats_for`].
        let stats = self.engine.stats_for(r);
        let view = StatsView {
            rows: r.len(),
            generation: r.generation(),
            cols: stats.as_deref(),
        };
        let (algorithm, reason, estimates, estimated_result) = match opt.force {
            Some(a) => (
                a,
                "forced by caller".to_string(),
                Vec::new(),
                r.len() as f64,
            ),
            None => plan::choose(opt, &self.simplified, &self.compiled, r, &view),
        };
        Plan {
            steps: self.semantic.steps.clone(),
            constraints_used: self.semantic.constraints_used.clone(),
            redundant: false,
            rows: r.len(),
            generation: view.generation,
            estimated_result,
            estimates,
            algorithm,
            reason,
        }
    }

    /// The one place an [`Explain`] is built: this query's identity,
    /// the plan it ran (or would run) under, and what the execution
    /// observed — the algorithm that actually ran, the dominance
    /// backend `(materialized, explicit_bitsets)`, the cache outcome.
    fn report(
        &self,
        r: &Relation,
        plan: Arc<Plan>,
        algorithm: Algorithm,
        (materialized, explicit_bitsets): (bool, bool),
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
            explicit_bitsets,
            cache,
            // Which lock shard the lookup ran through — every key a
            // term can probe lives in the shard its fingerprint
            // selects, so this is exact for hits, misses and
            // incremental rebuilds alike. `None` when no cache lookup
            // happened at all (Bypass).
            cache_shard: (cache != CacheStatus::Bypass).then(|| cache_shard_of(self.fingerprint)),
            generation: r.generation(),
            lineage: r.lineage(),
            shape_fingerprint: self.binding.as_ref().map(|(fp, _)| *fp),
            binding: self.binding.as_ref().map(|(_, values)| values.clone()),
            reason,
        }
    }

    /// Plan without executing — the report behind `EXPLAIN SELECT`: the
    /// derivation, the cost table and the backend the chosen algorithm
    /// would run on. No matrix is materialized and no algorithm runs.
    pub fn explain(&self, r: &Relation) -> Explain {
        let plan = self.plan(r);
        let materialized = !self.engine.inner.optimizer.no_materialize
            && Optimizer::uses_matrix(plan.algorithm)
            && self.compiled.supports_matrix(r);
        let backend = (materialized, materialized && self.compiled.has_explicit());
        let (algorithm, reason) = (plan.algorithm, plan.reason.clone());
        self.report(r, plan, algorithm, backend, CacheStatus::Bypass, reason)
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
        // An unbound shape denotes the empty order — evaluating it would
        // silently return every row. Refuse instead of guessing.
        if let Some(&slot) = self.param_slots.first() {
            return Err(QueryError::Core(CoreError::UnboundSlot { slot }));
        }
        if !r.schema().same_as(&self.schema) {
            return Err(QueryError::Relation(RelationError::SchemaMismatch {
                left: self.schema.to_string(),
                right: r.schema().to_string(),
            }));
        }
        let (rows, explain) = self.run(r)?;
        Ok(MaintainedResult {
            rows,
            explain,
            generation: r.generation(),
            fingerprint: self.fingerprint,
        })
    }

    fn run(&self, r: &Relation) -> Result<(Vec<usize>, Explain), QueryError> {
        let opt = &self.engine.inner.optimizer;
        let plan = self.plan(r);
        let algorithm = plan.algorithm;
        if plan.redundant {
            // Chomicki elimination: the constraint registry proves
            // σ[P](R) = R, so answer with every row — no algorithm, no
            // matrix, no cache traffic at all.
            let reason = plan.reason.clone();
            let explain = self.report(
                r,
                plan,
                algorithm,
                (false, false),
                CacheStatus::Bypass,
                reason,
            );
            return Ok(((0..r.len()).collect(), explain));
        }
        // Result tier first: an exact or delta-maintained previous
        // result answers without touching the matrix cache or running
        // any algorithm at all.
        if !opt.no_materialize {
            if let Some((rows, cache, materialized, explicit_bitsets)) =
                self.engine
                    .cached_result(self.fingerprint, &self.compiled, r)
            {
                let reason = match cache {
                    CacheStatus::Hit => "result cached for this exact content state".to_string(),
                    _ => "result maintained across the relation's delta: changed rows \
                          classified against the previous skyline"
                        .to_string(),
                };
                let backend = (materialized, explicit_bitsets);
                return Ok((
                    rows,
                    self.report(r, plan, algorithm, backend, cache, reason),
                ));
            }
        }
        let (matrix, cache) = if opt.no_materialize || !Optimizer::uses_matrix(algorithm) {
            (None, CacheStatus::Bypass)
        } else {
            self.engine
                .cached_matrix(self.fingerprint, &self.compiled, r)
        };
        let (rows, algorithm, reason) = run_algorithm(
            &self.engine,
            &self.simplified,
            &self.compiled,
            matrix.as_ref(),
            (algorithm, plan.reason.clone()),
            r,
        )?;
        let materialized = matrix.is_some();
        let explicit_bitsets = matrix.as_ref().is_some_and(MatrixWindow::explicit_backend);
        // Seed the result tier for future executions (and for the
        // maintenance classifier after the next mutation). Gated the
        // same way the probe is.
        if !opt.no_materialize
            && !opt.no_result_cache
            && self.engine.inner.capacity > 0
            && r.len() <= u32::MAX as usize
        {
            self.engine.inner.insert_result_bounded(
                (r.generation(), self.fingerprint),
                &Arc::new(ResultState {
                    rows: rows.iter().map(|&p| p as u32).collect(),
                    materialized,
                    explicit_bitsets,
                }),
            );
        }
        let backend = (materialized, explicit_bitsets);
        Ok((
            rows,
            self.report(r, plan, algorithm, backend, cache, reason),
        ))
    }

    /// Evaluate and materialize the sub-relation of best matches.
    pub fn execute_rel(&self, r: &Relation) -> Result<Relation, QueryError> {
        Ok(r.take_rows(self.execute(r)?.rows()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmo::sigma_naive_generic;
    use crate::optimizer::Algorithm;
    use pref_core::prelude::*;
    use pref_relation::{rel, Value};

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
    fn result_cache_ablation_exposes_the_matrix_shard_route() {
        // Same mutation shape as above, but with the result tier
        // disabled: the append must fall back to the PR 6 incremental
        // matrix rebuild (ShardHit), proving the knob keeps that route
        // measurable.
        let engine = Engine::with_optimizer(Optimizer::new().without_result_cache());
        let mut r = rel! {
            ("a": Int, "b": Int, "c": Str);
            (1, 9, "x"), (2, 8, "y"), (3, 7, "x"),
        };
        let p = around("a", 2).pareto(lowest("b"));
        let q = engine.prepare(&p, r.schema()).unwrap();
        assert_eq!(q.execute(&r).unwrap().cache(), CacheStatus::Miss);
        assert_eq!(
            q.execute(&r).unwrap().cache(),
            CacheStatus::Hit,
            "matrix exact hits still serve without the result tier"
        );
        r.push_values(vec![Value::from(2), Value::from(0), Value::from("w")])
            .unwrap();
        let (rows, ex) = q.execute(&r).unwrap().into_parts();
        assert_eq!(
            ex.cache,
            CacheStatus::ShardHit,
            "append over a warmed matrix must rebuild incrementally"
        );
        assert_eq!(rows, sigma_naive_generic(&p, &r).unwrap());
        let stats = engine.cache_stats();
        assert_eq!(stats.maintained_hits, 0);
        assert_eq!(stats.result_entries, 0, "ablated engines cache no results");
    }

    #[test]
    fn delete_views_bypass_the_positional_shard_tier() {
        // Regression: after `delete_row` the relation is a tombstone view
        // whose delta still names the dense pre-delete state — and that
        // state's resident matrix matches the recorded prefix length
        // exactly. The incremental rebuild is positional (base state =
        // unchanged storage prefix), so engaging it off a view replays
        // the old answer in stale storage coordinates. It must fall
        // through to a cold build instead.
        let engine = Engine::with_optimizer(Optimizer::new().without_result_cache());
        let mut r = rel! {
            ("a": Int, "b": Int, "c": Str);
            (1, 2, "x"), (2, 0, "y"), (3, 5, "x"), (4, 1, "y"),
        };
        let p = around("b", 0).pareto(lowest("a"));
        let q = engine.prepare(&p, r.schema()).unwrap();
        assert_eq!(q.execute(&r).unwrap().cache(), CacheStatus::Miss);

        // Delete a maximum: the survivors shift left and a previously
        // dominated row re-promotes — both wrong under matrix reuse.
        r.delete_row(1);
        let (rows, ex) = q.execute(&r).unwrap().into_parts();
        assert_eq!(
            ex.cache,
            CacheStatus::Miss,
            "a tombstone view must not seed the positional shard rebuild"
        );
        assert_eq!(rows, sigma_naive_generic(&p, &r).unwrap());
    }

    #[test]
    fn appends_and_updates_rebuild_only_their_shards() {
        // shard_rows = 4 over 10 rows → shards [0..4), [4..8), [8..10).
        // Result maintenance would answer these mutations before the
        // matrix path; ablate it so the shard rebuilds stay observable.
        let engine =
            Engine::with_optimizer(Optimizer::new().with_shard_rows(4).without_result_cache());
        let mut r = rel! { ("a": Int, "b": Int); (0, 0) };
        for i in 1..10i64 {
            r.push_values(vec![Value::from(i), Value::from(100 - i)])
                .unwrap();
        }
        let p = around("a", 4).pareto(lowest("b"));
        let q = engine.prepare(&p, r.schema()).unwrap();
        assert_eq!(q.execute(&r).unwrap().cache(), CacheStatus::Miss);
        let gens_before = q.matrix(&r).unwrap().matrix().shard_generations().to_vec();
        assert_eq!(gens_before.len(), 3);

        // Append within the tail shard: shards 0 and 1 carry over.
        r.push_values(vec![Value::from(99), Value::from(99)])
            .unwrap();
        let (rows, ex) = q.execute(&r).unwrap().into_parts();
        assert_eq!(ex.cache, CacheStatus::ShardHit);
        assert_eq!(rows, sigma_naive_generic(&p, &r).unwrap());
        let gens_after = q.matrix(&r).unwrap().matrix().shard_generations().to_vec();
        assert_eq!(
            &gens_after[..2],
            &gens_before[..2],
            "clean shards keep their stamps"
        );
        assert_ne!(
            gens_after[2], gens_before[2],
            "the grown tail shard was rebuilt"
        );

        // In-place update of row 1: only shard 0 is recomputed.
        r.update_row(1, vec![Value::from(4), Value::from(0)])
            .unwrap();
        let (rows, ex) = q.execute(&r).unwrap().into_parts();
        assert_eq!(ex.cache, CacheStatus::ShardHit);
        assert_eq!(rows, sigma_naive_generic(&p, &r).unwrap());
        let gens_updated = q.matrix(&r).unwrap().matrix().shard_generations().to_vec();
        assert_ne!(gens_updated[0], gens_after[0], "dirty shard rebuilt");
        assert_eq!(
            &gens_updated[1..],
            &gens_after[1..],
            "untouched shards survive"
        );
        let stats = engine.cache_stats();
        assert_eq!(stats.shard_hits, 2);
        assert_eq!(stats.misses, 1, "only the cold build was a full miss");
    }

    #[test]
    fn reordering_mutations_forfeit_the_incremental_route() {
        let engine = Engine::new();
        let mut r = sample();
        let p = around("a", 2).pareto(lowest("b"));
        let q = engine.prepare(&p, r.schema()).unwrap();
        q.execute(&r).unwrap();

        // A sort invalidates every prefix claim: full rebuild.
        r.sort_by_key(|t| t[0].clone());
        assert!(r.delta().is_none());
        let (rows, ex) = q.execute(&r).unwrap().into_parts();
        assert_eq!(ex.cache, CacheStatus::Miss);
        assert_eq!(rows, sigma_naive_generic(&p, &r).unwrap());
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
        dv.sort_by_key(|t| t[0].clone());
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

        // Warm the base matrix through the groupby path itself.
        let base_rows = engine.sigma_groupby(&p, &attrs, &r).unwrap();
        assert_eq!(engine.cache_stats().misses, 1);

        // Grouped evaluation over a fresh derived view reuses it via a
        // window instead of building a subset matrix.
        let d = r.select_derived(|_| true, 0x51);
        let grouped = engine.sigma_groupby(&p, &attrs, &d).unwrap();
        assert_eq!(grouped, base_rows);
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
        let rows = engine.sigma_groupby(&p, &attrs, &r).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (0, 0, 0),
            "no_materialize groupby must not touch the matrix cache"
        );
        assert_eq!(rows, Engine::new().sigma_groupby(&p, &attrs, &r).unwrap());
    }

    #[test]
    fn parameterized_shapes_bind_and_share_the_cache() {
        let engine = Engine::new();
        let r = sample();
        let shape = engine
            .prepare(&around_slot("a", 1).pareto(lowest("b")), r.schema())
            .unwrap();
        assert!(shape.has_params());
        assert_eq!(shape.param_slots(), &[1]);
        assert_eq!(shape.shape_fingerprint(), Some(shape.fingerprint()));

        // An unbound shape refuses to execute instead of returning the
        // empty order's "everything is maximal".
        assert!(matches!(
            shape.execute(&r),
            Err(QueryError::Core(CoreError::UnboundSlot { slot: 1 }))
        ));

        // Binding patches the slot; results agree with the concrete term
        // and the fingerprint equals a fresh concrete compile, so both
        // routes share one matrix cache entry.
        let bound = shape.bind(&[Value::from(3)]).unwrap();
        assert!(!bound.has_params());
        let concrete_term = around("a", 3).pareto(lowest("b"));
        let (rows, ex) = bound.execute(&r).unwrap().into_parts();
        assert_eq!(rows, sigma_naive_generic(&concrete_term, &r).unwrap());
        assert_eq!(ex.shape_fingerprint, shape.shape_fingerprint());
        assert_eq!(ex.binding.as_deref(), Some(&[Value::from(3)][..]));
        assert!(ex.to_string().contains("shape"));

        let concrete = engine.prepare(&concrete_term, r.schema()).unwrap();
        assert_eq!(concrete.fingerprint(), bound.fingerprint());
        if ex.materialized {
            assert_eq!(concrete.execute(&r).unwrap().cache(), CacheStatus::Hit);
        }

        // Re-binding with fresh values is a different concrete query —
        // cold once, then warm; the shape fingerprint stays put.
        let bound2 = shape.bind(&[Value::from(5)]).unwrap();
        assert_ne!(bound2.fingerprint(), bound.fingerprint());
        assert_eq!(bound2.shape_fingerprint(), shape.shape_fingerprint());
        let (rows2, e1) = bound2.execute(&r).unwrap().into_parts();
        assert_eq!(
            rows2,
            sigma_naive_generic(&around("a", 5).pareto(lowest("b")), &r).unwrap()
        );
        if e1.materialized {
            assert_eq!(e1.cache, CacheStatus::Miss);
            assert_eq!(bound2.execute(&r).unwrap().cache(), CacheStatus::Hit);
        }

        // Bad bindings name the slot.
        assert!(matches!(
            shape.bind(&[]),
            Err(QueryError::Core(CoreError::UnboundSlot { slot: 1 }))
        ));
        assert!(matches!(
            shape.bind(&[Value::from("off-axis")]),
            Err(QueryError::Core(CoreError::BadBinding { slot: 1, .. }))
        ));

        // Binding a concrete query is the identity.
        let same = concrete.bind(&[Value::from(9)]).unwrap();
        assert_eq!(same.fingerprint(), concrete.fingerprint());
        assert!(same.execute(&r).unwrap().explain().binding.is_none());
    }

    #[test]
    fn binding_that_collapses_slots_matches_a_fresh_prepare() {
        // `$1 = $2` can make a Pareto of distinct shapes collapsible
        // (Prop. 3l: P ⊗ P ≡ P). The bound query must re-simplify so its
        // fingerprint — and hence its matrix cache entry — matches a
        // fresh prepare of the bound term.
        let engine = Engine::new();
        let r = sample();
        let shape = engine
            .prepare(&around_slot("a", 1).pareto(around_slot("a", 2)), r.schema())
            .unwrap();

        let collapsed = shape.bind(&[Value::from(3), Value::from(3)]).unwrap();
        let fresh = engine.prepare(&around("a", 3), r.schema()).unwrap();
        assert_eq!(
            collapsed.fingerprint(),
            fresh.fingerprint(),
            "equal bindings must collapse like inline literals"
        );
        assert_eq!(
            collapsed.execute(&r).unwrap().into_rows(),
            fresh.execute(&r).unwrap().into_rows()
        );

        // Distinct bindings keep the two-operand Pareto (fast path).
        let distinct = shape.bind(&[Value::from(2), Value::from(4)]).unwrap();
        let fresh2 = engine
            .prepare(&around("a", 2).pareto(around("a", 4)), r.schema())
            .unwrap();
        assert_eq!(distinct.fingerprint(), fresh2.fingerprint());
        assert_eq!(
            distinct.execute(&r).unwrap().into_rows(),
            fresh2.execute(&r).unwrap().into_rows()
        );
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
