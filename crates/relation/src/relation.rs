//! Relations: a schema plus a bag of tuples — the paper's "database sets".

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::attr::AttrSet;
use crate::error::RelationError;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// Process-wide generation source. Every distinct relation *content
/// state* gets a unique number: construction draws a fresh one, every
/// mutation draws another. Two relations sharing a generation therefore
/// hold identical rows in identical order (clones before divergence),
/// which is exactly the soundness condition content-addressed caches
/// (e.g. the query engine's score-matrix cache) need.
static GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    // Relaxed: only uniqueness matters — fetch_add is atomic under any
    // ordering, and no other memory is published alongside the id.
    GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// The *lineage* of a derived relation: which content state it was
/// derived from (the base's [`Relation::generation`]) and a stable
/// fingerprint of the derivation (a WHERE predicate, a σ\[P\] row
/// subset, …).
///
/// Lineage is the cache key that survives re-derivation. A fresh
/// selection over an unchanged base draws a fresh generation — useless
/// as a cache key, the generation never recurs — but its lineage is
/// identical to the previous derivation's, so caches keyed by
/// `(base generation, predicate fingerprint, …)` can serve the new copy
/// from work done for the old one. Mutating the base moves its
/// generation, which makes every lineage rooted in the old state
/// unreachable: stale reuse is impossible by construction.
///
/// **Soundness contract:** callers of [`Relation::select_derived`] /
/// [`Relation::take_rows_derived`] must guarantee that the fingerprint
/// uniquely determines the derivation given the parent's content — two
/// derivations from equal parent states with equal fingerprints must
/// yield identical rows in identical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lineage {
    base_generation: u64,
    predicate: u64,
}

impl Lineage {
    /// The generation of the (transitively) underived base relation this
    /// view was computed from.
    pub fn base_generation(&self) -> u64 {
        self.base_generation
    }

    /// The accumulated fingerprint of the derivation chain (one folded
    /// value even for stacked derivations).
    pub fn predicate(&self) -> u64 {
        self.predicate
    }
}

/// FNV-1a over a byte string — the helper derivation fingerprints are
/// built from. Deliberately simple and process-independent: lineage keys
/// must be reproducible, not cryptographic.
pub fn predicate_fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fold a further derivation fingerprint onto an existing one (stacked
/// views: `σ_pred2(σ_pred1(R))`).
fn fold_fingerprint(acc: u64, fp: u64) -> u64 {
    let mut h = acc;
    for b in fp.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Mutation provenance: how the current content state relates to recent
/// earlier states of the same relation, for caches that would rather
/// patch a previous materialization than rebuild from scratch.
///
/// All indices are **storage positions**. Storage only grows by
/// [`Relation::push`] and shrinks only by [`Relation::delete_rows`]
/// tombstones, which drop ids from the view and leave the tuples in
/// place, so storage positions are stable names for rows across the
/// recorded history; a push that has to flatten a view rebuilds storage
/// and restarts the delta.
///
/// The contract, for every recorded base `(generation, len)` at index
/// `k` in [`Delta::bases`]: the relation state that carried
/// `generation` had exactly `len` visible rows, namely storage
/// positions `0..len + t` minus the first `t` entries of
/// [`Delta::deleted`] (in storage order), where
/// `t = deleted().len() - deleted_since(k).len()`. For a relation with
/// no deletions this is the prefix claim: storage rows `0..len` are the
/// state-`generation` rows.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// Earlier content states this relation extends, most recent first,
    /// capped at [`Delta::MAX_BASES`].
    bases: Vec<(u64, usize)>,
    /// Parallel to `bases`: how many tombstones in `deleted` predate
    /// each base (i.e. `deleted.len()` when the base was recorded).
    tombs_at: Vec<u32>,
    /// Storage positions dropped from the visible view by
    /// [`Relation::delete_rows`], in deletion order. Cumulative: a
    /// tombstoned row never becomes visible again within the delta's
    /// lifetime.
    deleted: Vec<u32>,
}

impl Delta {
    /// How many prior content states a relation remembers.
    pub const MAX_BASES: usize = 4;
    /// Tombstone budget: once this many rows have been deleted a
    /// rebuild is cheap relative to the bookkeeping, so tracking stops.
    pub const MAX_DELETED: usize = 64;

    /// The remembered `(generation, visible length)` base states, most
    /// recent first.
    pub fn bases(&self) -> &[(u64, usize)] {
        &self.bases
    }

    /// All tombstoned storage positions, in deletion order.
    pub fn deleted(&self) -> &[u32] {
        &self.deleted
    }

    /// The tombstones recorded *after* the base at `bases()[k]` — the
    /// rows that were still visible at that base's generation but are
    /// gone now. Panics when `k` is out of bounds.
    pub fn deleted_since(&self, k: usize) -> &[u32] {
        &self.deleted[self.tombs_at[k] as usize..]
    }

    /// Record a new most-recent base, capturing the current tombstone
    /// watermark.
    fn push_base(&mut self, gen: u64, len: usize) {
        self.bases.insert(0, (gen, len));
        self.tombs_at.insert(0, self.deleted.len() as u32);
        self.bases.truncate(Delta::MAX_BASES);
        self.tombs_at.truncate(Delta::MAX_BASES);
    }
}

/// An in-memory relation. Rows are stored in insertion order; duplicate
/// rows are allowed (bag semantics, like SQL tables with no key).
///
/// ## Shared storage and row-id views
///
/// Tuple storage lives behind an `Arc`, and a relation is either *dense*
/// (its rows are the whole storage vector, in order) or a **row-id
/// view**: an index vector over storage shared with the relation it was
/// derived from. [`Relation::select`] / [`Relation::take_rows`] and
/// their `_derived` flavors build views — O(k) id construction, zero
/// tuple clones — so deriving a subset never copies values, and the
/// view's columns and dictionary encodings read the very same tuples as
/// the base's. Mutating either side is copy-on-write: the mutated
/// relation flattens (or `Arc::make_mut`s) its own storage, the other
/// keeps reading the old tuples.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Arc<Schema>,
    /// Shared tuple storage. `Arc<Vec<_>>` rather than `Arc<[_]>` so a
    /// uniquely-owned relation still pushes in O(1) amortized
    /// (`Arc::make_mut`); views clone the handle, not the tuples.
    rows: Arc<Vec<Tuple>>,
    /// `None` = dense (all of `rows`, in order). `Some(ids)` = a view:
    /// row `i` of this relation is `rows[ids[i]]`.
    row_ids: Option<Arc<[u32]>>,
    /// Do `row_ids` index, one-to-one and in order, the rows of the
    /// relation at generation `lineage.base_generation()`? True exactly
    /// when that base was dense over this same storage (directly or
    /// through a chain of windowable views), which is what lets a cached
    /// whole-base score matrix be *windowed* onto this view by plain
    /// index indirection. See [`Relation::window_ids`].
    windowable: bool,
    /// See [`Relation::generation`].
    generation: u64,
    /// See [`Relation::lineage`].
    lineage: Option<Lineage>,
    /// See [`Relation::delta`].
    delta: Option<Delta>,
}

/// Iterator over a relation's tuples (dense storage or a row-id view).
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    rows: &'a [Tuple],
    ids: Option<std::slice::Iter<'a, u32>>,
    next: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        match &mut self.ids {
            Some(ids) => ids.next().map(|&i| &self.rows[i as usize]),
            None => {
                let t = self.rows.get(self.next)?;
                self.next += 1;
                Some(t)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.ids {
            Some(ids) => ids.len(),
            None => self.rows.len() - self.next,
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl Relation {
    /// Empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            schema: Arc::new(schema),
            rows: Arc::new(Vec::new()),
            row_ids: None,
            windowable: false,
            generation: next_generation(),
            lineage: None,
            delta: None,
        }
    }

    /// Build from a schema and pre-validated rows.
    pub fn from_rows(schema: Schema, rows: Vec<Tuple>) -> Result<Self> {
        let mut r = Relation::empty(schema);
        for row in rows {
            r.push(row)?;
        }
        // Bulk construction is one content state, not a mutation history.
        r.delta = None;
        Ok(r)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Shared handle to the schema.
    pub fn schema_arc(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// The relation's *generation*: a process-unique version number for
    /// its current content. Both mutating operations ([`Relation::push`]
    /// and [`Relation::delete_rows`]) move the relation to a fresh
    /// generation; derived relations (selections,
    /// projections) start at their own fresh generation. Clones share the
    /// generation until either side mutates.
    ///
    /// Equal generations imply identical row content *and* row order, so
    /// `(generation, query fingerprint)` is a sound cache key for any
    /// per-relation materialization: mutation can never serve stale data.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The relation's [`Lineage`], when it is a derived view built by
    /// [`Relation::select_derived`] or [`Relation::take_rows_derived`].
    /// `None` for base relations and for derived relations built through
    /// the lineage-blind operations ([`Relation::select`],
    /// [`Relation::take_rows`], projections, …). Mutating a derived
    /// relation severs the lineage: its content no longer equals the
    /// recorded derivation.
    pub fn lineage(&self) -> Option<Lineage> {
        self.lineage
    }

    /// The lineage a view derived from `self` with fingerprint `fp`
    /// carries: rooted at this relation's generation, or — when `self` is
    /// itself a derived view — at its base's generation with the two
    /// fingerprints folded, so stacked derivations stay cacheable as long
    /// as the *underived* base is unchanged.
    fn derive_lineage(&self, fp: u64) -> Lineage {
        match self.lineage {
            Some(l) => Lineage {
                base_generation: l.base_generation,
                predicate: fold_fingerprint(l.predicate, fp),
            },
            None => Lineage {
                base_generation: self.generation,
                predicate: fold_fingerprint(0xcbf2_9ce4_8422_2325, fp),
            },
        }
    }

    /// Number of tuples (`card(R)`).
    pub fn len(&self) -> usize {
        match &self.row_ids {
            Some(ids) => ids.len(),
            None => self.rows.len(),
        }
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row at index `i`.
    pub fn row(&self, i: usize) -> &Tuple {
        match &self.row_ids {
            Some(ids) => &self.rows[ids[i] as usize],
            None => &self.rows[i],
        }
    }

    /// Iterate over tuples.
    pub fn iter(&self) -> Rows<'_> {
        Rows {
            rows: &self.rows,
            ids: self.row_ids.as_ref().map(|ids| ids.iter()),
            next: 0,
        }
    }

    /// Materialize an owned copy of every row, in order — an explicit
    /// O(n) tuple-clone. The old `rows() -> &[Tuple]` accessor is gone:
    /// a row-id view has no contiguous slice of its tuples, and handing
    /// one out silently materialized the copy. Callers that really need
    /// owned contiguous rows opt in here; everything else should use
    /// [`Relation::iter`] / [`Relation::row`].
    pub fn to_owned_rows(&self) -> Vec<Tuple> {
        self.iter().cloned().collect()
    }

    /// The row-id index vector when this relation is a zero-copy *view*
    /// over shared storage (`None` for dense relations). `ids[i]` is the
    /// storage position of row `i`. Mostly useful for asserting that a
    /// derivation was O(k) id construction rather than a tuple copy.
    pub fn row_ids(&self) -> Option<&[u32]> {
        self.row_ids.as_deref()
    }

    /// Does this relation read the exact same tuple storage as `other`
    /// (one is a zero-copy view or clone of the other)?
    pub fn shares_storage_with(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.rows, &other.rows)
    }

    /// The window key of this view, when a cached whole-base
    /// materialization can serve it by index indirection: the generation
    /// of the dense base relation whose rows `row_ids` index one-to-one,
    /// plus the ids themselves. `None` for dense relations, for views
    /// whose lineage was severed, and for views derived from a relation
    /// that was itself not storage-identical to its lineage base (there
    /// the ids point into storage, not into the base's row space).
    pub fn window_ids(&self) -> Option<(u64, &Arc<[u32]>)> {
        if !self.windowable {
            return None;
        }
        match (&self.lineage, &self.row_ids) {
            (Some(l), Some(ids)) => Some((l.base_generation(), ids)),
            _ => None,
        }
    }

    /// The row-id view a derivation of `self` carries for the row at
    /// *view position* `k`: storage-relative, composing through this
    /// relation's own ids when it is itself a view.
    fn storage_id(&self, k: usize) -> u32 {
        match &self.row_ids {
            Some(ids) => ids[k],
            None => u32::try_from(k).expect("relation exceeds u32 row-id space"),
        }
    }

    /// Is a view derived from `self` windowable onto `self`'s lineage
    /// base (or onto `self` itself when `self` is the dense base)?
    fn derivable_window(&self) -> bool {
        (self.row_ids.is_none() && self.lineage.is_none()) || self.windowable
    }

    /// Exclusive access to dense storage for mutation: flattens a view
    /// into fresh owned storage first (the one place a view pays the
    /// copy — mutating it), then copy-on-writes shared dense storage.
    /// Flattening rebuilds storage, so every storage-position claim in
    /// the [`Delta`] dies with it — the caller re-records its own base
    /// against the flattened copy afterwards.
    fn rows_mut(&mut self) -> &mut Vec<Tuple> {
        if self.row_ids.is_some() {
            let dense: Vec<Tuple> = self.iter().cloned().collect();
            self.rows = Arc::new(dense);
            self.row_ids = None;
            self.delta = None;
        }
        self.windowable = false;
        Arc::make_mut(&mut self.rows)
    }

    /// The relation's mutation provenance (see [`Delta`]). `None` for
    /// fresh or derived relations (a delete from a derived view leaves
    /// it `None`) and once deletions exceed the [`Delta::MAX_DELETED`]
    /// budget.
    pub fn delta(&self) -> Option<&Delta> {
        self.delta.as_ref()
    }

    /// The tail of every mutation: draw a fresh generation and sever the
    /// lineage.
    fn restamp(&mut self) {
        self.generation = next_generation();
        self.lineage = None;
    }

    /// Would a (schema-valid) row keep every declared constraint true?
    /// `other` is any row that stays visible beside it — stored rows
    /// agree on every `CONSTANT` attribute, so one witness speaks for
    /// all of them. O(declared constraints): free on unconstrained
    /// schemas.
    fn check_constraints(&self, values: &[Value], other: Option<&Tuple>) -> Result<()> {
        for c in self.schema.constraints() {
            let col = self.schema.require(c.attr())?;
            if !c.admits(&values[col], other.map(|t| &t[col])) {
                return Err(RelationError::ConstraintViolation {
                    constraint: c.clone(),
                    got: values[col].clone(),
                });
            }
        }
        Ok(())
    }

    /// Append a validated tuple.
    pub fn push(&mut self, row: Tuple) -> Result<()> {
        self.schema.check_row(row.values())?;
        self.check_constraints(row.values(), self.iter().next())?;
        let (old_gen, old_len) = (self.generation, self.len());
        self.rows_mut().push(row);
        self.restamp();
        // The state before the push is a clean prefix of the new one.
        let d = self.delta.get_or_insert_with(Delta::default);
        d.push_base(old_gen, old_len);
        Ok(())
    }

    /// Append a row given as raw values.
    pub fn push_values(&mut self, values: Vec<Value>) -> Result<()> {
        self.push(Tuple::new(values))
    }

    /// Remove the row at index `i` by tombstoning it in the row-id view:
    /// [`Relation::delete_rows`] of one row.
    ///
    /// Panics when `i` is out of bounds, like [`Relation::row`].
    pub fn delete_row(&mut self, i: usize) {
        self.delete_rows(&[i]);
    }

    /// Remove the rows at indices `rows` (any order; a repeated index
    /// counts once) by tombstoning them in the row-id view: storage is
    /// untouched, the relation becomes (or stays) a zero-copy view over
    /// the same tuples minus the victims. Because storage positions keep
    /// their meaning, the [`Delta`] survives — the victims are recorded
    /// in [`Delta::deleted`] so caches can patch a previous
    /// materialization instead of rebuilding (and the new result
    /// maintenance can tell "a non-member vanished" from "a result row
    /// vanished").
    ///
    /// A deletion is a mutation like any other: the generation moves and
    /// the lineage is severed — once for the whole batch, which records
    /// one delta base and rebuilds the id vector in one pass, so a k-row
    /// delete stays maintainable past [`Delta::MAX_BASES`]. An empty
    /// batch changes nothing. Deleting from a view whose ids do not
    /// track storage order (e.g. a reordered [`Relation::take_rows`]) is
    /// still correct but drops the delta, as the storage-order contract
    /// cannot be maintained there.
    ///
    /// Panics when an index is out of bounds, like [`Relation::row`].
    pub fn delete_rows(&mut self, rows: &[usize]) {
        let mut doomed = rows.to_vec();
        doomed.sort_unstable();
        doomed.dedup();
        let Some(&last) = doomed.last() else {
            return;
        };
        assert!(last < self.len(), "delete index {last} out of bounds");
        let (old_gen, old_len) = (self.generation, self.len());
        let victims: Vec<u32> = doomed.iter().map(|&i| self.storage_id(i)).collect();
        // The delta contract describes tombstone views over a storage
        // prefix. That holds for dense relations and for views built by
        // this method itself (which carry the delta along); a foreign
        // view (select/take_rows — arbitrary id subsets, delta `None`)
        // cannot start one.
        let trackable = self.row_ids.is_none() || self.delta.is_some();
        let mut next = doomed.iter().peekable();
        let mut kept = |k: &usize| next.next_if_eq(&k).is_none();
        let ids: Arc<[u32]> = (0..old_len)
            .filter(|k| kept(k))
            .map(|k| self.storage_id(k))
            .collect();
        self.row_ids = Some(ids);
        self.windowable = false;
        self.restamp();
        if trackable {
            let d = self.delta.get_or_insert_with(Delta::default);
            d.push_base(old_gen, old_len);
            d.deleted.extend(&victims);
            if d.deleted.len() > Delta::MAX_DELETED {
                self.delta = None;
            }
        } else {
            self.delta = None;
        }
    }

    /// The storage-relative id vector of a selection over this relation.
    fn filter_ids<F>(&self, pred: F) -> Arc<[u32]>
    where
        F: Fn(&Tuple) -> bool,
    {
        match &self.row_ids {
            Some(ids) => ids
                .iter()
                .copied()
                .filter(|&i| pred(&self.rows[i as usize]))
                .collect(),
            None => {
                assert!(
                    self.rows.len() <= u32::MAX as usize,
                    "relation exceeds u32 row-id space"
                );
                self.rows
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| pred(t))
                    .map(|(i, _)| i as u32)
                    .collect()
            }
        }
    }

    /// A zero-copy view over this relation's storage with the given
    /// storage-relative ids.
    fn view(&self, ids: Arc<[u32]>, lineage: Option<Lineage>) -> Relation {
        Relation {
            schema: Arc::clone(&self.schema),
            rows: Arc::clone(&self.rows),
            row_ids: Some(ids),
            windowable: lineage.is_some() && self.derivable_window(),
            generation: next_generation(),
            lineage,
            delta: None,
        }
    }

    /// Hard selection σ (exact-match world): keep rows satisfying `pred`.
    /// A zero-copy row-id view — O(k) id construction, no tuple clones.
    pub fn select<F>(&self, pred: F) -> Relation
    where
        F: Fn(&Tuple) -> bool,
    {
        self.view(self.filter_ids(pred), None)
    }

    /// [`Relation::select`] as a *derived view*: the result carries a
    /// [`Lineage`] rooted at this relation's generation with
    /// `predicate_fp` identifying the predicate, so downstream caches can
    /// recognize re-derivations of the same subset (a repeated WHERE
    /// clause over an unchanged table) instead of treating every
    /// selection as an unrelated relation — and, when this relation is
    /// the dense base (or windowable itself), *window* a cached
    /// whole-base materialization onto the subset by index indirection
    /// ([`Relation::window_ids`]).
    ///
    /// See the [`Lineage`] soundness contract: `predicate_fp` must
    /// uniquely determine `pred`'s semantics.
    pub fn select_derived<F>(&self, pred: F, predicate_fp: u64) -> Relation
    where
        F: Fn(&Tuple) -> bool,
    {
        self.view(
            self.filter_ids(pred),
            Some(self.derive_lineage(predicate_fp)),
        )
    }

    /// Keep only rows at the given indices (in the given order). A
    /// zero-copy row-id view, like [`Relation::select`].
    pub fn take_rows(&self, indices: &[usize]) -> Relation {
        self.view(indices.iter().map(|&i| self.storage_id(i)).collect(), None)
    }

    /// [`Relation::take_rows`] as a *derived view* — for row subsets that
    /// are a deterministic function of this relation's content (e.g. the
    /// σ\[P\] result a decomposition recursion evaluates further), with
    /// `subset_fp` identifying that function. Same [`Lineage`] contract
    /// (and windowing behavior) as [`Relation::select_derived`].
    pub fn take_rows_derived(&self, indices: &[usize], subset_fp: u64) -> Relation {
        self.view(
            indices.iter().map(|&i| self.storage_id(i)).collect(),
            Some(self.derive_lineage(subset_fp)),
        )
    }

    /// Projection π onto `attrs` (sorted attribute order), keeping
    /// duplicates. Builds new tuples (the one derivation that cannot be
    /// a row-id view: the rows themselves change shape).
    pub fn project(&self, attrs: &AttrSet) -> Result<Relation> {
        let cols = self.schema.resolve(attrs)?;
        let schema = self.schema.project(attrs)?;
        let rows = self.iter().map(|t| t.project(&cols)).collect();
        Ok(Relation {
            schema: Arc::new(schema),
            rows: Arc::new(rows),
            row_ids: None,
            windowable: false,
            generation: next_generation(),
            lineage: None,
            delta: None,
        })
    }

    /// Remove duplicate rows (first occurrence wins, order preserved).
    /// A zero-copy row-id view over this relation's storage.
    pub fn distinct(&self) -> Relation {
        let mut seen: HashSet<&Tuple> = HashSet::with_capacity(self.len());
        let mut keep: Vec<u32> = Vec::new();
        for (k, t) in self.iter().enumerate() {
            if seen.insert(t) {
                keep.push(self.storage_id(k));
            }
        }
        self.view(keep.into(), None)
    }

    /// `card(π_attrs(R))` after dedup — the denominator in result-size
    /// statistics (Def. 18 counts *different A-values*).
    pub fn distinct_count(&self, attrs: &AttrSet) -> Result<usize> {
        let cols = self.schema.resolve(attrs)?;
        let mut seen: HashSet<Tuple> = HashSet::with_capacity(self.len());
        for t in self.iter() {
            seen.insert(t.project(&cols));
        }
        Ok(seen.len())
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for t in self.iter() {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attr, rel};

    fn cars() -> Relation {
        rel! {
            ("make": Str, "price": Int);
            ("Audi", 40_000),
            ("BMW", 35_000),
            ("VW", 20_000),
            ("BMW", 50_000),
        }
    }

    #[test]
    fn macro_builds_valid_relation() {
        let r = cars();
        assert_eq!(r.len(), 4);
        assert_eq!(r.schema().arity(), 2);
        assert_eq!(r.row(2)[0], Value::from("VW"));
    }

    #[test]
    fn push_validates() {
        let mut r = cars();
        assert!(r
            .push_values(vec![Value::from("Opel"), Value::from(1)])
            .is_ok());
        assert!(r.push_values(vec![Value::from(1), Value::from(1)]).is_err());
        assert!(r.push_values(vec![Value::from("Opel")]).is_err());
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn hard_selection() {
        let r = cars();
        let bmw = r.select(|t| t[0] == Value::from("BMW"));
        assert_eq!(bmw.len(), 2);
        let none = r.select(|_| false);
        assert!(none.is_empty());
    }

    #[test]
    fn projection_and_distinct() {
        let r = cars();
        let makes = r.project(&AttrSet::single(attr("make"))).unwrap();
        assert_eq!(makes.len(), 4);
        assert_eq!(makes.distinct().len(), 3);
        assert_eq!(r.distinct_count(&AttrSet::single(attr("make"))).unwrap(), 3);
        assert_eq!(r.distinct_count(&r.schema().attr_set()).unwrap(), 4);
    }

    #[test]
    fn take_rows_preserves_order() {
        let r = cars();
        let sub = r.take_rows(&[3, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.row(0)[1], Value::from(50_000));
        assert_eq!(sub.row(1)[0], Value::from("Audi"));
    }

    #[test]
    fn generations_track_content_states() {
        let mut r = cars();
        let g0 = r.generation();
        // Clones share the generation until either side mutates.
        let snapshot = r.clone();
        assert_eq!(snapshot.generation(), g0);

        r.push_values(vec![Value::from("Opel"), Value::from(1)])
            .unwrap();
        let g1 = r.generation();
        assert_ne!(g0, g1, "push must move the generation");
        assert_eq!(snapshot.generation(), g0, "clone keeps its own state");

        // Failed mutations leave the generation untouched.
        assert!(r.push_values(vec![Value::from(1)]).is_err());
        assert_eq!(r.generation(), g1);

        r.delete_row(0);
        assert_ne!(r.generation(), g1, "deletion is a mutation");

        // Derived relations live in their own generations.
        let derived = r.select(|_| true);
        assert_ne!(derived.generation(), r.generation());
        assert_ne!(r.take_rows(&[0]).generation(), r.generation());
    }

    #[test]
    fn deltas_record_appends_and_cap_their_bases() {
        let mut r = cars();
        assert!(r.delta().is_none(), "bulk construction carries no delta");
        let g0 = r.generation();

        r.push_values(vec![Value::from("Opel"), Value::from(1)])
            .unwrap();
        let g1 = r.generation();
        let d = r.delta().unwrap();
        assert_eq!(d.bases(), &[(g0, 4)]);

        r.push_values(vec![Value::from("Fiat"), Value::from(2)])
            .unwrap();
        let d = r.delta().unwrap();
        assert_eq!(d.bases(), &[(g1, 5), (g0, 4)], "most recent base first");

        // The base list is capped, newest kept.
        for _ in 0..Delta::MAX_BASES {
            let g = r.generation();
            r.push_values(vec![Value::from("Fiat"), Value::from(2)])
                .unwrap();
            assert_eq!(r.delta().unwrap().bases()[0], (g, r.len() - 1));
        }
        assert_eq!(r.delta().unwrap().bases().len(), Delta::MAX_BASES);

        // Derived views start with no delta; mutating one then records
        // against the flattened copy, which is still a valid prefix.
        let base = cars();
        let mut v = base.select(|t| t[0] == Value::from("BMW"));
        assert!(v.delta().is_none());
        let vg = v.generation();
        v.push_values(vec![Value::from("BMW"), Value::from(1)])
            .unwrap();
        assert_eq!(v.delta().unwrap().bases(), &[(vg, 2)]);

        // Failed mutations record nothing.
        let mut r = cars();
        assert!(r.push_values(vec![Value::from(1)]).is_err());
        assert!(r.delta().is_none());
    }

    #[test]
    fn delete_row_tombstones_without_copying() {
        let mut r = cars();
        let g0 = r.generation();
        let storage = r.clone();
        r.delete_row(1);
        assert_eq!(r.len(), 3);
        assert_eq!(r.row(1)[0], Value::from("VW"), "later rows shift down");
        assert!(
            r.shares_storage_with(&storage),
            "delete must not copy tuples"
        );
        assert_eq!(r.row_ids(), Some(&[0u32, 2, 3][..]));
        assert_ne!(r.generation(), g0, "deletion is a mutation");

        let d = r.delta().expect("deletes keep the delta");
        assert_eq!(d.bases(), &[(g0, 4)]);
        assert_eq!(d.deleted(), &[1]);
        assert_eq!(d.deleted_since(0), &[1]);

        // Chained deletes keep tombstoning against the same storage.
        let g1 = r.generation();
        r.delete_row(2); // storage id 3
        assert!(r.shares_storage_with(&storage));
        assert_eq!(r.row_ids(), Some(&[0u32, 2][..]));
        let d = r.delta().unwrap();
        assert_eq!(d.bases(), &[(g1, 3), (g0, 4)]);
        assert_eq!(d.deleted(), &[1, 3]);
        assert_eq!(d.deleted_since(0), &[3], "only the second tombstone");
        assert_eq!(d.deleted_since(1), &[1, 3]);
    }

    #[test]
    fn delete_row_interacts_with_other_mutations() {
        // Appends before a delete: the older bases stay claimable.
        let mut r = cars();
        let g0 = r.generation();
        r.push_values(vec![Value::from("Opel"), Value::from(1)])
            .unwrap();
        let g1 = r.generation();
        r.delete_row(0);
        let d = r.delta().unwrap();
        assert_eq!(d.bases(), &[(g1, 5), (g0, 4)]);
        assert_eq!(d.deleted(), &[0]);
        assert_eq!(d.deleted_since(1), &[0]);

        // A push after a delete flattens the view: storage positions
        // change meaning, so the tombstone history dies with them.
        let mut r = cars();
        r.delete_row(3);
        r.push_values(vec![Value::from("Opel"), Value::from(1)])
            .unwrap();
        assert_eq!(r.row_ids(), None, "push flattens the tombstone view");
        let d = r.delta().unwrap();
        assert_eq!(d.bases().len(), 1, "only the post-flatten base survives");
        assert!(d.deleted().is_empty());

        // Deleting from a foreign view is correct but untracked.
        let base = cars();
        let mut v = base.select(|t| t[0] == Value::from("BMW"));
        v.delete_row(0);
        assert_eq!(v.len(), 1);
        assert_eq!(v.row(0)[1], Value::from(50_000));
        assert!(v.shares_storage_with(&base));
        assert!(v.delta().is_none(), "foreign views cannot claim a prefix");

        // Deletion severs lineage and the window like any mutation.
        let mut dv = base.select_derived(|_| true, 42);
        assert!(dv.window_ids().is_some());
        dv.delete_row(0);
        assert!(dv.lineage().is_none());
        assert!(dv.window_ids().is_none());

        // The tombstone budget drops the delta rather than growing it.
        let mut big = Relation::empty(cars().schema().clone());
        for i in 0..=(Delta::MAX_DELETED as i64 + 1) {
            big.push_values(vec![Value::from("X"), Value::from(i)])
                .unwrap();
        }
        for _ in 0..=Delta::MAX_DELETED {
            big.delete_row(0);
        }
        assert!(big.delta().is_none());
    }

    #[test]
    fn derived_views_carry_stable_lineage() {
        let r = cars();
        let fp = predicate_fingerprint(b"make = 'BMW'");
        let a = r.select_derived(|t| t[0] == Value::from("BMW"), fp);
        let b = r.select_derived(|t| t[0] == Value::from("BMW"), fp);

        // Fresh generations (content states are distinct objects) but
        // identical lineage — that is the reusable key.
        assert_ne!(a.generation(), b.generation());
        assert_eq!(a.lineage(), b.lineage());
        let l = a.lineage().unwrap();
        assert_eq!(l.base_generation(), r.generation());

        // A different predicate over the same base differs in lineage.
        let c = r.select_derived(|_| true, predicate_fingerprint(b"true"));
        assert_ne!(c.lineage(), a.lineage());

        // Lineage-blind derivations carry none.
        assert!(r.select(|_| true).lineage().is_none());
        assert!(r.take_rows(&[0]).lineage().is_none());
        assert!(r
            .project(&AttrSet::single(attr("make")))
            .unwrap()
            .lineage()
            .is_none());
    }

    #[test]
    fn stacked_derivations_fold_onto_the_base_generation() {
        let r = cars();
        let first = r.select_derived(|t| t[0] == Value::from("BMW"), 7);
        let second = first.take_rows_derived(&[0], 9);
        let l = second.lineage().unwrap();
        assert_eq!(l.base_generation(), r.generation());
        // Recomputing the same chain reproduces the folded fingerprint.
        let again = r
            .select_derived(|t| t[0] == Value::from("BMW"), 7)
            .take_rows_derived(&[0], 9);
        assert_eq!(again.lineage(), second.lineage());
        // Order and fingerprints both matter.
        let swapped = r.select_derived(|_| true, 9).take_rows_derived(&[0], 7);
        assert_ne!(swapped.lineage(), second.lineage());
    }

    #[test]
    fn mutation_severs_lineage() {
        let r = cars();
        let mut d = r.select_derived(|_| true, 42);
        assert!(d.lineage().is_some());
        d.push_values(vec![Value::from("Opel"), Value::from(1)])
            .unwrap();
        assert!(d.lineage().is_none(), "pushed rows break the derivation");

        let mut d = r.select_derived(|_| true, 42);
        d.delete_row(1);
        assert!(d.lineage().is_none(), "deleted rows break the derivation");

        // Clones keep the lineage (identical content).
        let d = r.select_derived(|_| true, 42);
        assert_eq!(d.clone().lineage(), d.lineage());
    }

    #[test]
    fn empty_projection_is_unit() {
        let r = cars();
        let p = r.project(&AttrSet::empty()).unwrap();
        assert_eq!(p.schema().arity(), 0);
        assert_eq!(p.distinct().len(), 1); // all rows project to ()
    }

    #[test]
    fn selections_are_zero_copy_views() {
        let r = cars();
        let bmw = r.select(|t| t[0] == Value::from("BMW"));
        assert!(bmw.shares_storage_with(&r), "select must not clone tuples");
        assert_eq!(bmw.row_ids(), Some(&[1u32, 3][..]));
        assert_eq!(bmw.row(1)[1], Value::from(50_000));

        let sub = r.take_rows(&[3, 0]);
        assert!(sub.shares_storage_with(&r));
        assert_eq!(sub.row_ids(), Some(&[3u32, 0][..]));

        // Stacked views compose ids onto the same storage.
        let nested = bmw.take_rows(&[1]);
        assert!(nested.shares_storage_with(&r));
        assert_eq!(nested.row_ids(), Some(&[3u32][..]));
        assert_eq!(nested.row(0)[1], Value::from(50_000));

        // Dense relations report no ids; projection re-materializes.
        assert_eq!(r.row_ids(), None);
        let proj = r.project(&AttrSet::single(attr("make"))).unwrap();
        assert!(!proj.shares_storage_with(&r));
    }

    #[test]
    fn mutating_a_view_copies_on_write() {
        let r = cars();
        let mut v = r.select(|t| t[0] == Value::from("BMW"));
        v.push_values(vec![Value::from("Opel"), Value::from(1)])
            .unwrap();
        assert!(!v.shares_storage_with(&r), "mutation must flatten the view");
        assert_eq!(v.row_ids(), None);
        assert_eq!(v.len(), 3);
        assert_eq!(r.len(), 4, "the base is untouched");

        // Mutating the base of a live view leaves the view reading the
        // old storage.
        let mut base = cars();
        let v = base.select(|_| true);
        base.push_values(vec![Value::from("Opel"), Value::from(1)])
            .unwrap();
        assert!(!v.shares_storage_with(&base));
        assert_eq!(v.len(), 4, "view sees the old rows");
    }

    #[test]
    fn window_ids_track_the_dense_base() {
        let r = cars();
        let d = r.select_derived(|t| t[0] == Value::from("BMW"), 7);
        let (base_gen, ids) = d.window_ids().expect("derived from a dense base");
        assert_eq!(base_gen, r.generation());
        assert_eq!(&ids[..], &[1u32, 3]);

        // Stacked derivations stay windowable onto the root base.
        let dd = d.take_rows_derived(&[1], 9);
        let (gen2, ids2) = dd.window_ids().expect("stacked view stays windowable");
        assert_eq!(gen2, r.generation());
        assert_eq!(&ids2[..], &[3u32]);

        // Lineage-blind views are not windowable, and neither is a
        // derivation rooted at one: its lineage base is the blind view,
        // whose row space is not the shared storage.
        let blind = r.select(|_| true);
        assert!(blind.window_ids().is_none());
        let from_blind = blind.select_derived(|_| true, 3);
        assert_eq!(
            from_blind.lineage().unwrap().base_generation(),
            blind.generation()
        );
        assert!(from_blind.window_ids().is_none());

        // Mutation severs the window along with the lineage.
        let mut d = r.select_derived(|_| true, 42);
        assert!(d.window_ids().is_some());
        d.push_values(vec![Value::from("Opel"), Value::from(1)])
            .unwrap();
        assert!(d.window_ids().is_none());

        // Dense relations have no window.
        assert!(r.window_ids().is_none());
    }

    #[test]
    fn declared_constraints_are_enforced_on_every_mutation() {
        use crate::constraint::Constraint;
        let schema = cars()
            .schema()
            .clone()
            .with_constraint(Constraint::Constant { attr: attr("make") })
            .unwrap()
            .with_constraint(Constraint::Domain {
                attr: attr("price"),
                values: vec![Value::from(10), Value::from(20)],
            })
            .unwrap();
        let mut r = Relation::empty(schema.clone());
        // A lone row fixes the CONSTANT value; the DOMAIN binds at once.
        assert!(r
            .push_values(vec![Value::from("BMW"), Value::from(30)])
            .is_err());
        r.push_values(vec![Value::from("BMW"), Value::from(10)])
            .unwrap();
        r.push_values(vec![Value::from("BMW"), Value::from(20)])
            .unwrap();

        let refused = |r: &mut Relation, f: &dyn Fn(&mut Relation) -> Result<()>| {
            let before = (r.generation(), r.to_owned_rows(), r.delta().cloned());
            let err = f(r).unwrap_err();
            assert!(matches!(err, RelationError::ConstraintViolation { .. }));
            assert_eq!(r.generation(), before.0, "a refused mutation moves nothing");
            assert_eq!(r.to_owned_rows(), before.1);
            assert_eq!(
                r.delta().map(Delta::bases),
                before.2.as_ref().map(Delta::bases)
            );
            err
        };
        let err = refused(&mut r, &|r| {
            r.push_values(vec![Value::from("VW"), Value::from(10)])
        });
        assert_eq!(
            err.to_string(),
            "constraint CONSTANT(make) violated by value 'VW'"
        );
        refused(&mut r, &|r| {
            r.push_values(vec![Value::from("BMW"), Value::from(15)])
        });
        // A tombstone view checks against its visible rows too.
        r.delete_row(0);
        refused(&mut r, &|r| {
            r.push_values(vec![Value::from("VW"), Value::from(20)])
        });

        // What keeps the constraints true still goes through.
        r.push_values(vec![Value::from("BMW"), Value::from(10)])
            .unwrap();
        assert_eq!(r.len(), 2);
        for c in schema.constraints() {
            assert!(c.holds_on(&r).unwrap());
        }
        // A table emptied by deletes takes a new CONSTANT value.
        r.delete_row(0);
        r.delete_row(0);
        r.push_values(vec![Value::from("VW"), Value::from(10)])
            .unwrap();
        assert!(schema.constraints().iter().all(|c| c.holds_on(&r).unwrap()));
    }

    #[test]
    fn to_owned_rows_is_the_explicit_copy() {
        let r = cars();
        let v = r.take_rows(&[2, 1]);
        let owned = v.to_owned_rows();
        assert_eq!(owned.len(), 2);
        assert_eq!(owned[0][0], Value::from("VW"));
        assert!(v.iter().eq(owned.iter()));
    }
}
