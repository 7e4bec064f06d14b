//! Score-matrix storage and construction: the columnar per-row
//! materialization of a compiled preference over one relation.
//!
//! This module is the only one that knows the layout. Dominance keys and
//! equality codes are stored the same way — **slot-major lanes over the
//! whole relation**, `keys[slot][row]` and `eqs[slot][row]` — because
//! every evaluator reads them by random row access (one incoming tuple
//! against a window of candidates); the batch kernels of BNL and SFS
//! gather rows into window lanes of their own.
//!
//! Every lane kind has **one per-row function** ([`KeySpec::key`],
//! [`EqSpec::row_code`]), which is what a full fill, an incremental
//! patch and the [`supports`] probe all call:
//!
//! * a *full build* allocates each key lane once and fills disjoint row
//!   ranges on up to `threads` scoped workers (the per-value
//!   `dominance_key` dispatch dominates build cost);
//! * an *incremental build* ([`Reuse`]) goes through [`patch_lane`] —
//!   copy the prefix of the previous lane, encode the appended rows —
//!   for keys, value fingerprints and EXPLICIT vertex ids alike, so its
//!   work is proportional to the append. Only dictionary lanes (strings,
//!   multi-attribute projections) re-encode in full: extending dense
//!   first-seen ids needs the whole column's dictionary, which the
//!   matrix does not keep.
//!
//! Storage grows only by appends and shrinks only by tombstones, so no
//! prefix row ever changes and product callers pass no dirty rows
//! (`&[]`). The `dirty` list of
//! [`CompiledPref::score_matrix_incremental`](crate::eval::CompiledPref::score_matrix_incremental)
//! stays only because the repository benchmark (`perfbench/`) names
//! that signature (ROADMAP item 1(a)).

use std::collections::HashMap;

use pref_relation::{Relation, Tuple};

use crate::base::{BaseRef, Reachability};
use crate::eval::{rank_value, Child, Node};
use crate::term::CombineFn;

/// A full build hands a second worker rows only above this many: below
/// it a thread spawn costs more than the keys it would compute.
const MIN_ROWS_PER_WORKER: usize = 4096;

/// A score-materialized, columnar form of a compiled preference over one
/// concrete relation.
///
/// Per row, the matrix stores:
///
/// * one `f64` **dominance key** per score-representable sub-term (base
///   preferences with a [`crate::base::BasePreference::dominance_key`],
///   `rank(F)` terms), with the exact per-term guarantee
///   `better(x, y) ⟺ key(x) < key(y)`;
/// * one `u64` **equality code** per Pareto/prioritised operand,
///   encoding the operand's attribute projection (`xi = yi` of Def. 8/9)
///   as a lossless value fingerprint (single numeric columns) or a dense
///   dictionary id ([`Relation::group_ids`]); both compare by `==`.
///
/// `better(x, y)` then runs the Def. 8–12 recursion over row *indices*
/// touching only these vectors — branch-light numeric comparisons with no
/// `Value` dispatch, no hash-set membership tests, no distance
/// recomputation.
#[derive(Debug, Clone)]
pub struct ScoreMatrix {
    rows: usize,
    /// Slot-major dominance keys: `keys[slot][row]`.
    keys: Vec<Vec<f64>>,
    /// Slot-major equality codes: `eqs[slot][row]`.
    eqs: Vec<Vec<u64>>,
    /// Per eq slot: is the encoding a pure per-row function (value
    /// fingerprints, EXPLICIT vertex ids)? Those lanes are patched by an
    /// incremental rebuild; dictionary lanes are not.
    eq_row_pure: Vec<bool>,
    plan: ScorePlan,
}

/// Reuse directive for an incremental build: `prev` covers rows
/// `0..prefix_len` of the new relation, identically except rows in
/// `dirty` (empty from every product caller, see the module docs).
#[derive(Clone, Copy)]
pub(crate) struct Reuse<'a> {
    pub(crate) prev: &'a ScoreMatrix,
    pub(crate) prefix_len: usize,
    pub(crate) dirty: &'a [u32],
}

/// The structural skeleton `better` interprets over the materialized
/// columns. Mirrors [`Node`] restricted to score-representable shapes.
#[derive(Debug, Clone)]
enum ScorePlan {
    /// `better ⟺ key[x] < key[y]`.
    Key(usize),
    /// Never better.
    Antichain,
    /// Argument swap.
    Dual(Box<ScorePlan>),
    /// Flat Pareto over key children — the skyline-critical fast path.
    ParetoKeys(Vec<(usize, usize)>),
    /// General Pareto: `(child, eq slot)` per operand.
    Pareto(Vec<(ScorePlan, usize)>),
    /// Prioritised accumulation: `(child, eq slot)` per operand.
    Prior(Vec<(ScorePlan, usize)>),
    /// EXPLICIT sub-term: per-row vertex ids in slot `ids`, dominance via
    /// the graph's reachability bitset. A genuine partial order — the one
    /// base shape with no `f64` embedding that still materializes.
    Explicit { ids: usize, reach: Reachability },
}

impl ScoreMatrix {
    /// The one build: `threads` workers for a full build, or a patch of
    /// `reuse.prev`. `None` when the term does not materialize on `r`.
    pub(crate) fn build(
        node: &Node,
        r: &Relation,
        threads: usize,
        reuse: Option<Reuse<'_>>,
    ) -> Option<ScoreMatrix> {
        let mut b = MatrixBuilder::default();
        let plan = b.plan(node)?;
        // A `prev` with other slot counts is a different term's matrix:
        // it reuses nothing and the build degenerates to a full one.
        let reuse = reuse.filter(|ru| {
            ru.prev.key_slots() == b.key_specs.len() && ru.prev.eq_slots() == b.eq_specs.len()
        });
        // Keys validate per value (every dominance key must embed), so
        // they run first: non-embeddable relations bail before paying
        // for the equality pass.
        let keys = build_keys(&b.key_specs, r, threads, reuse)?;
        let (eqs, eq_row_pure) = build_eqs(&b.eq_specs, r, reuse);
        Some(ScoreMatrix {
            rows: r.len(),
            keys,
            eqs,
            eq_row_pure,
            plan,
        })
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Is the matrix over an empty relation?
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of materialized key columns.
    pub fn key_slots(&self) -> usize {
        self.keys.len()
    }

    /// Number of materialized equality-id columns.
    pub fn eq_slots(&self) -> usize {
        self.eqs.len()
    }

    /// The materialized dominance key of `row` in key slot `slot`.
    #[inline]
    pub fn key_at(&self, row: usize, slot: usize) -> f64 {
        self.keys[slot][row]
    }

    #[inline]
    pub(crate) fn eq_at(&self, row: usize, slot: usize) -> u64 {
        self.eqs[slot][row]
    }

    /// The `(key slot, eq slot)` pairs of a flat Pareto order, when the
    /// whole plan is one.
    pub(crate) fn pareto_slots(&self) -> Option<&[(usize, usize)]> {
        match &self.plan {
            ScorePlan::ParetoKeys(slots) => Some(slots),
            _ => None,
        }
    }

    /// The heads and the tail of a plan that splits by Prop. 10 (see
    /// [`prior_split`]).
    pub(crate) fn prior_split(&self) -> Option<PriorSplit<'_>> {
        prior_split(&self.plan)
    }

    /// The strict better-than test on row indices: is `y` better than
    /// `x`? Agrees exactly with [`crate::eval::CompiledPref::better`] on
    /// the rows of the relation this matrix was built from.
    #[inline]
    pub fn better(&self, x: usize, y: usize) -> bool {
        self.eval(&self.plan, x, y)
    }

    fn eval(&self, plan: &ScorePlan, x: usize, y: usize) -> bool {
        match plan {
            ScorePlan::Key(s) => self.key_at(x, *s) < self.key_at(y, *s),
            ScorePlan::Antichain => false,
            ScorePlan::Dual(inner) => self.eval(inner, y, x),
            // Def. 8 over keys: a key child is strictly better exactly on
            // `<`; on unequal projections with no strict win, y cannot
            // dominate. (Equal eq ids imply equal keys, so the equality
            // branch is only reachable with `key(x) == key(y)`.)
            ScorePlan::ParetoKeys(slots) => {
                let mut any_strict = false;
                for &(k, e) in slots {
                    if self.key_at(x, k) < self.key_at(y, k) {
                        any_strict = true;
                    } else if self.eq_at(x, e) != self.eq_at(y, e) {
                        return false;
                    }
                }
                any_strict
            }
            ScorePlan::Pareto(children) => {
                let mut any_strict = false;
                for (child, e) in children {
                    if self.eval(child, x, y) {
                        any_strict = true;
                    } else if self.eq_at(x, *e) != self.eq_at(y, *e) {
                        return false;
                    }
                }
                any_strict
            }
            // Def. 9: first operand whose projections differ decides.
            ScorePlan::Prior(children) => {
                for (child, e) in children {
                    if self.eval(child, x, y) {
                        return true;
                    }
                    if self.eq_at(x, *e) != self.eq_at(y, *e) {
                        return false;
                    }
                }
                false
            }
            ScorePlan::Explicit { ids, reach } => {
                reach.better_ids(self.eq_at(x, *ids) as usize, self.eq_at(y, *ids) as usize)
            }
        }
    }

    /// Does this matrix run any sub-term on the EXPLICIT reachability
    /// bitset backend (as opposed to pure `f64` dominance keys)?
    pub fn explicit_backend(&self) -> bool {
        fn walk(p: &ScorePlan) -> bool {
            match p {
                ScorePlan::Explicit { .. } => true,
                ScorePlan::Dual(inner) => walk(inner),
                ScorePlan::Pareto(children) | ScorePlan::Prior(children) => {
                    children.iter().any(|(c, _)| walk(c))
                }
                ScorePlan::Key(_) | ScorePlan::Antichain | ScorePlan::ParetoKeys(_) => false,
            }
        }
        walk(&self.plan)
    }
}

/// A plan split by Prop. 10: `heads` are the `(key slot, eq slot)` of
/// its leading single-lane operands in priority order (the eq slot is
/// `None` for a plan that is one key: nothing follows it, so its codes are
/// never read), `tail` what follows them — `None` for nothing,
/// `Some(Some(slots))` for one flat Pareto operand's lanes, `Some(None)`
/// for anything else.
pub(crate) struct PriorSplit<'a> {
    pub(crate) heads: Vec<(usize, Option<usize>)>,
    pub(crate) tail: Option<Option<&'a [(usize, usize)]>>,
}

/// The Prop. 10 split of a prioritisation whose first operand is one key
/// lane, or of a lone key; `None` for every other plan.
fn prior_split(plan: &ScorePlan) -> Option<PriorSplit<'_>> {
    let children = match plan {
        ScorePlan::Key(k) => {
            return Some(PriorSplit {
                heads: vec![(*k, None)],
                tail: None,
            })
        }
        ScorePlan::Prior(children) => children,
        _ => return None,
    };
    let heads: Vec<(usize, Option<usize>)> = children
        .iter()
        .map_while(|(c, e)| match c {
            ScorePlan::Key(k) => Some((*k, Some(*e))),
            _ => None,
        })
        .collect();
    let tail = match &children[heads.len()..] {
        [] => None,
        [(ScorePlan::ParetoKeys(slots), _)] => Some(Some(slots.as_slice())),
        _ => Some(None),
    };
    (!heads.is_empty()).then_some(PriorSplit { heads, tail })
}

/// Which batch kernel a matrix of `node` offers, read off the structure
/// alone (a value that does not embed can still stop the build).
pub(crate) fn lane_shape(node: &Node) -> Option<LaneShape> {
    let plan = MatrixBuilder::default().plan(node)?;
    match plan {
        ScorePlan::ParetoKeys(_) => Some(LaneShape::Flat),
        _ => prior_split(&plan).map(|_| LaneShape::HeadSplit),
    }
}

/// The batch kernel a materialized term offers
/// ([`CompiledPref::lane_shape`](crate::eval::CompiledPref::lane_shape)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneShape {
    /// A flat Pareto order of key lanes:
    /// [`Dominance::pareto_access`](crate::eval::Dominance::pareto_access).
    Flat,
    /// A prioritisation headed by one key lane, or a lone key:
    /// [`Dominance::prior_access`](crate::eval::Dominance::prior_access).
    HeadSplit,
}

/// Would [`ScoreMatrix::build`] succeed on `r`? The same success
/// condition by construction — the structural [`MatrixBuilder::plan`],
/// then every key slot's per-row function over every row — with no lane
/// allocated and an exit at the first value that fails to embed.
/// (Equality lanes always encode.)
pub(crate) fn supports(node: &Node, r: &Relation) -> bool {
    let mut b = MatrixBuilder::default();
    b.plan(node).is_some()
        && b.key_specs
            .iter()
            .all(|spec| r.iter().all(|t| spec.key(t).is_some()))
}

/// How one key slot is computed from a row. Structural — carries no
/// relation data, so a plan compiles once and its lanes fill on
/// whichever thread owns the row range.
enum KeySpec {
    /// `base.dominance_key(row[col])`.
    Base { col: usize, base: BaseRef },
    /// `F(f1(row[c1]), …)` of `rank(F)`.
    Rank {
        combine: CombineFn,
        inputs: Vec<(usize, BaseRef)>,
    },
}

impl KeySpec {
    /// This slot's dominance key of `t`; `None` when the value does not
    /// embed (no dominance key, or a NaN that would order inconsistently
    /// under `<`) — which fails the whole build.
    fn key(&self, t: &Tuple) -> Option<f64> {
        let k = match self {
            KeySpec::Base { col, base } => base.dominance_key(&t[*col])?,
            KeySpec::Rank { combine, inputs } => rank_value(combine, inputs, t),
        };
        (!k.is_nan()).then_some(k)
    }
}

/// How one equality slot's codes are computed.
enum EqSpec {
    /// Projection equality over `cols`: value fingerprints for a single
    /// numeric column, dictionary group ids otherwise.
    Projection(Vec<usize>),
    /// EXPLICIT vertex ids: `base`'s graph-vertex index of `row[col]`,
    /// with every outside value collapsed onto `outside`.
    ExplicitIds {
        col: usize,
        base: BaseRef,
        outside: u64,
    },
}

impl EqSpec {
    /// The row-pure code of row `row`, `None` when this slot has none
    /// there (a string, a NULL, a multi-attribute projection) and the
    /// lane must be dictionary-encoded as a whole.
    fn row_code(&self, r: &Relation, row: usize) -> Option<u64> {
        match self {
            EqSpec::Projection(cols) => match cols.as_slice() {
                [col] => r.column(*col).fingerprint_at(row),
                _ => None,
            },
            EqSpec::ExplicitIds { col, base, outside } => {
                let e = base
                    .as_explicit()
                    .expect("ExplicitIds specs are built from EXPLICIT bases");
                Some(
                    e.vertex_index(&r.row(row)[*col])
                        .map_or(*outside, |i| i as u64),
                )
            }
        }
    }
}

#[derive(Default)]
struct MatrixBuilder {
    key_specs: Vec<KeySpec>,
    eq_specs: Vec<EqSpec>,
    /// Dedup equality slots by their column signature — Pareto and Prior
    /// operands over the same attribute set share one encoding.
    eq_cache: HashMap<Vec<usize>, usize>,
}

impl MatrixBuilder {
    /// Compile `node` into a [`ScorePlan`] plus the key/eq lane specs the
    /// build phases execute. Purely structural: data-dependent failures
    /// (non-embeddable values) surface later, in [`KeySpec::key`].
    fn plan(&mut self, node: &Node) -> Option<ScorePlan> {
        match node {
            Node::Base { col, base } => {
                if let Some(e) = base.as_explicit() {
                    // EXPLICIT has no f64 embedding (genuine partial
                    // order), but values resolve to graph-vertex ids once
                    // and dominance becomes a reachability-bitset probe.
                    let reach = e.reachability();
                    let outside = reach.outside_id() as u64;
                    self.eq_specs.push(EqSpec::ExplicitIds {
                        col: *col,
                        base: base.clone(),
                        outside,
                    });
                    return Some(ScorePlan::Explicit {
                        ids: self.eq_specs.len() - 1,
                        reach,
                    });
                }
                Some(ScorePlan::Key(self.push_key(KeySpec::Base {
                    col: *col,
                    base: base.clone(),
                })))
            }
            Node::Antichain => Some(ScorePlan::Antichain),
            Node::Dual(inner) => Some(ScorePlan::Dual(Box::new(self.plan(inner)?))),
            Node::Rank { combine, inputs } => Some(ScorePlan::Key(self.push_key(KeySpec::Rank {
                combine: combine.clone(),
                inputs: inputs.clone(),
            }))),
            Node::Pareto(children) => {
                let built = self.children(children)?;
                // Flatten all-key Pareto terms into the tight loop.
                if built.iter().all(|(c, _)| matches!(c, ScorePlan::Key(_))) {
                    Some(ScorePlan::ParetoKeys(
                        built
                            .into_iter()
                            .map(|(c, e)| match c {
                                ScorePlan::Key(k) => (k, e),
                                _ => unreachable!("all children checked to be keys"),
                            })
                            .collect(),
                    ))
                } else {
                    Some(ScorePlan::Pareto(built))
                }
            }
            Node::Prior(children) => Some(ScorePlan::Prior(self.children(children)?)),
            // Intersection / disjoint union compare two full sub-orders
            // per pair; no per-row embedding exists in general.
            Node::Inter(..) | Node::Union(..) => None,
        }
    }

    fn children(&mut self, children: &[Child]) -> Option<Vec<(ScorePlan, usize)>> {
        children
            .iter()
            .map(|c| {
                let plan = self.plan(&c.node)?;
                let eq = self.eq_slot(&c.eq_cols);
                Some((plan, eq))
            })
            .collect()
    }

    fn push_key(&mut self, spec: KeySpec) -> usize {
        self.key_specs.push(spec);
        self.key_specs.len() - 1
    }

    fn eq_slot(&mut self, cols: &[usize]) -> usize {
        if let Some(&slot) = self.eq_cache.get(cols) {
            return slot;
        }
        self.eq_specs.push(EqSpec::Projection(cols.to_vec()));
        let slot = self.eq_specs.len() - 1;
        self.eq_cache.insert(cols.to_vec(), slot);
        slot
    }
}

/// The one incremental routine, for every lane whose codes are pure
/// per-row functions: copy `prefix` (the clean rows of the previous
/// lane), re-encode the `dirty` rows inside it, encode rows
/// `prefix.len()..rows`. With an empty prefix this is a full encode.
/// `None` at the first row `encode` refuses.
fn patch_lane<T: Copy>(
    prefix: &[T],
    dirty: &[u32],
    rows: usize,
    encode: impl Fn(usize) -> Option<T>,
) -> Option<Vec<T>> {
    let mut lane = Vec::with_capacity(rows);
    lane.extend_from_slice(prefix);
    for &d in dirty {
        // Dirty rows at or past the prefix are appended rows: encoded below.
        if let Some(code) = lane.get_mut(d as usize) {
            *code = encode(d as usize)?;
        }
    }
    for row in prefix.len()..rows {
        lane.push(encode(row)?);
    }
    Some(lane)
}

/// Materialize the key lanes. `None` when any value fails to embed — in
/// any worker's range, which aborts the whole build.
fn build_keys(
    specs: &[KeySpec],
    r: &Relation,
    threads: usize,
    reuse: Option<Reuse<'_>>,
) -> Option<Vec<Vec<f64>>> {
    let rows = r.len();
    if let Some(ru) = reuse {
        return specs
            .iter()
            .zip(&ru.prev.keys)
            .map(|(spec, prev)| {
                patch_lane(&prev[..ru.prefix_len], ru.dirty, rows, |row| {
                    spec.key(r.row(row))
                })
            })
            .collect();
    }
    // The only place a row range is chosen for a build: every lane is
    // allocated once and cut into the same `chunk`-row pieces, one
    // piece of every lane per worker.
    let workers = threads.clamp(1, rows.div_ceil(MIN_ROWS_PER_WORKER).max(1));
    let chunk = rows.div_ceil(workers).max(1);
    let mut lanes = vec![vec![0.0f64; rows]; specs.len()];
    let mut ranges: Vec<Vec<&mut [f64]>> = (0..rows.div_ceil(chunk)).map(|_| Vec::new()).collect();
    for lane in &mut lanes {
        for (range, piece) in ranges.iter_mut().zip(lane.chunks_mut(chunk)) {
            range.push(piece);
        }
    }
    // Row-outer: each tuple is read once, for all of its keys.
    let fill = |w: usize, mut pieces: Vec<&mut [f64]>| -> bool {
        let len = pieces.first().map_or(0, |piece| piece.len());
        (0..len).all(|i| {
            let t = r.row(w * chunk + i);
            specs
                .iter()
                .zip(&mut pieces)
                .all(|(spec, piece)| spec.key(t).map(|key| piece[i] = key).is_some())
        })
    };
    let mut ranges = ranges.into_iter().enumerate();
    let first = ranges.next();
    let embedded = std::thread::scope(|scope| {
        let fill = &fill;
        let spawned: Vec<_> = ranges
            .map(|(w, pieces)| scope.spawn(move || fill(w, pieces)))
            .collect();
        // The calling thread is worker 0.
        let ok = first.is_none_or(|(w, pieces)| fill(w, pieces));
        spawned.into_iter().fold(ok, |ok, h| {
            h.join().expect("key build worker panicked") && ok
        })
    });
    embedded.then_some(lanes)
}

/// Materialize the equality lanes: each through [`patch_lane`] — from the
/// previous lane's prefix when that lane was row-pure, from nothing
/// otherwise — and dictionary-encoded as a whole where a value has no
/// row-pure code.
fn build_eqs(
    specs: &[EqSpec],
    r: &Relation,
    reuse: Option<Reuse<'_>>,
) -> (Vec<Vec<u64>>, Vec<bool>) {
    specs
        .iter()
        .enumerate()
        .map(|(slot, spec)| {
            let (prefix, dirty) = match reuse {
                Some(ru) if ru.prev.eq_row_pure[slot] => {
                    (&ru.prev.eqs[slot][..ru.prefix_len], ru.dirty)
                }
                _ => (&[][..], &[][..]),
            };
            let patched = patch_lane(prefix, dirty, r.len(), |row| spec.row_code(r, row));
            match (patched, spec) {
                (Some(lane), _) => (lane, true),
                (None, EqSpec::Projection(cols)) => {
                    let (ids, _) = r.group_ids(cols);
                    (ids.into_iter().map(u64::from).collect(), false)
                }
                (None, EqSpec::ExplicitIds { .. }) => {
                    unreachable!("every value has a vertex id (outside values share one)")
                }
            }
        })
        .unzip()
}
