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
//! A build is **one row-major pass on the calling thread** ([`Pass`]):
//! each tuple is read once, and every key lane and every single-column
//! equality lane is written while it is in cache.
//!
//! * A value with a fingerprint ([`Value::fingerprint`]) is its own
//!   equality code.
//! * A value without one (a string, a NULL) takes a first-seen id from
//!   its column's per-build [`Dictionary`]. An equality lane that meets
//!   such a value becomes a dictionary lane as a whole — the rows before
//!   it are re-encoded once — so the two kinds of code never share a
//!   lane, and its ids are those of [`Relation::group_ids`].
//! * A key slot over a base preference calls `dominance_key` once per
//!   distinct dictionary id, and once per row for fingerprinted values.
//!
//! Multi-column projections take [`Relation::group_ids`] after the pass.
//! The last operand of a prioritisation gets no equality lane: Def. 9
//! decides before it or not at all, so its codes would never be read.
//!
//! An *incremental build* ([`Reuse`]) copies the prefix of every lane
//! whose codes are pure per-row functions — keys, fingerprint lanes,
//! EXPLICIT vertex ids — and runs the same pass over the dirty and
//! appended rows only, so its per-value work is proportional to the
//! append. A dictionary lane re-encodes its column in full: extending
//! first-seen ids needs the whole column's dictionary, which the matrix
//! does not keep. The [`supports`] probe is the same pass, its lanes
//! dropped.
//!
//! Storage grows only by appends and shrinks only by tombstones, so no
//! prefix row ever changes and product callers pass no dirty rows
//! (`&[]`). The `dirty` list of
//! [`CompiledPref::score_matrix_incremental`](crate::eval::CompiledPref::score_matrix_incremental)
//! stays only because the repository benchmark (`perfbench/`) names
//! that signature (ROADMAP item 1(a)).

use std::collections::HashMap;

use pref_relation::{Dictionary, Relation, Tuple, Value};

use crate::base::{BaseRef, Explicit, Reachability};
use crate::eval::{rank_value, Child, Node};
use crate::term::CombineFn;

/// A score-materialized, columnar form of a compiled preference over one
/// concrete relation.
///
/// Per row, the matrix stores:
///
/// * one `f64` **dominance key** per score-representable sub-term (base
///   preferences with a [`crate::base::BasePreference::dominance_key`],
///   `rank(F)` terms), with the exact per-term guarantee
///   `better(x, y) ⟺ key(x) < key(y)`;
/// * one `u64` **equality code** per Pareto operand and per
///   prioritisation operand but the last, encoding the operand's
///   attribute projection (`xi = yi` of Def. 8/9) as a lossless value
///   fingerprint (single numeric columns) or a dense dictionary id
///   ([`Relation::group_ids`]); both compare by `==`.
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
    /// Prioritised accumulation: `(child, eq slot)` per operand. The last
    /// operand has no eq slot: nothing follows it, so Def. 9 never
    /// compares its projections.
    Prior(Vec<(ScorePlan, Option<usize>)>),
    /// EXPLICIT sub-term: per-row vertex ids in slot `ids`, dominance via
    /// the graph's reachability bitset. A genuine partial order — the one
    /// base shape with no `f64` embedding that still materializes.
    Explicit { ids: usize, reach: Reachability },
}

impl ScoreMatrix {
    /// The one build: a full pass, or a patch of `reuse.prev`. `None`
    /// when the term does not materialize on `r`.
    pub(crate) fn build(
        node: &Node,
        r: &Relation,
        reuse: Option<Reuse<'_>>,
    ) -> Option<ScoreMatrix> {
        let mut b = MatrixBuilder::default();
        let plan = b.plan(node)?;
        // A `prev` with other slot counts is a different term's matrix:
        // it reuses nothing and the build degenerates to a full one.
        let reuse = reuse.filter(|ru| {
            ru.prev.key_slots() == b.key_specs.len() && ru.prev.eq_slots() == b.eq_specs.len()
        });
        let (keys, eqs, eq_row_pure) = b.pass(r, reuse)?.lanes(&b.eq_specs);
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

    /// The materialized equality code of `row` in eq slot `slot`: rows
    /// agree on the slot's projection iff their codes are equal.
    #[inline]
    pub fn eq_at(&self, row: usize, slot: usize) -> u64 {
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
                    match e {
                        Some(e) if self.eq_at(x, *e) == self.eq_at(y, *e) => {}
                        _ => return false,
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
                ScorePlan::Pareto(children) => children.iter().any(|(c, _)| walk(c)),
                ScorePlan::Prior(children) => children.iter().any(|(c, _)| walk(c)),
                ScorePlan::Key(_) | ScorePlan::Antichain | ScorePlan::ParetoKeys(_) => false,
            }
        }
        walk(&self.plan)
    }
}

/// A plan split by Prop. 10: `heads` are the `(key slot, eq slot)` of
/// its leading single-lane operands in priority order (the key slot is
/// `None` for an anti-chain, on which every row ties; the eq slot is
/// `None` for the last operand and for a plan that is one key: nothing
/// follows it, so its codes are never read), `tail` what follows them —
/// `None` for nothing, `Some(Some(slots))` for one flat Pareto operand's
/// lanes, `Some(None)` for anything else.
pub(crate) struct PriorSplit<'a> {
    pub(crate) heads: Vec<(Option<usize>, Option<usize>)>,
    pub(crate) tail: Option<Option<&'a [(usize, usize)]>>,
}

/// The Prop. 10 split of a prioritisation whose first operand is one key
/// lane or an anti-chain that an operand follows (`A↔ & P`, Def. 16's
/// grouping), or of a lone key or anti-chain; `None` for every other
/// plan.
fn prior_split(plan: &ScorePlan) -> Option<PriorSplit<'_>> {
    let lone = |key| PriorSplit {
        heads: vec![(key, None)],
        tail: None,
    };
    let children = match plan {
        ScorePlan::Key(k) => return Some(lone(Some(*k))),
        ScorePlan::Antichain => return Some(lone(None)),
        ScorePlan::Prior(children) => children,
        _ => return None,
    };
    let heads: Vec<(Option<usize>, Option<usize>)> = children
        .iter()
        .map_while(|(c, e)| match (c, e) {
            (ScorePlan::Key(k), _) => Some((Some(*k), *e)),
            (ScorePlan::Antichain, Some(_)) => Some((None, *e)),
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
    /// A prioritisation headed by one key lane or an anti-chain, or a
    /// lone key or anti-chain:
    /// [`Dominance::prior_access`](crate::eval::Dominance::prior_access).
    HeadSplit,
}

/// Would [`ScoreMatrix::build`] succeed on `r`? The same success
/// condition by construction — the structural [`MatrixBuilder::plan`],
/// then the build's own pass, which stops at the first value that fails
/// to embed — with its lanes dropped and no group ids computed.
/// (Equality lanes always encode.)
pub(crate) fn supports(node: &Node, r: &Relation) -> bool {
    let mut b = MatrixBuilder::default();
    b.plan(node).is_some() && b.pass(r, None).is_some()
}

/// How one key slot is computed from a row. Structural — carries no
/// relation data, so a plan compiles once and fills any relation of its
/// schema.
enum KeySpec {
    /// `base.dominance_key(row[col])`; `column` is `col`'s index among
    /// the columns the pass encodes.
    Base {
        col: usize,
        column: usize,
        base: BaseRef,
    },
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
            KeySpec::Base { col, base, .. } => base.dominance_key(&t[*col])?,
            KeySpec::Rank { combine, inputs } => rank_value(combine, inputs, t),
        };
        (!k.is_nan()).then_some(k)
    }
}

/// How one equality slot's codes are computed.
enum EqSpec {
    /// Projection equality over one column: the lane of that column's
    /// [`ColumnCodes`] (index `column` among the encoded columns).
    Column(usize),
    /// Projection equality over several columns (or none): dictionary
    /// group ids, computed after the pass.
    Projection(Vec<usize>),
    /// EXPLICIT vertex ids: `base`'s graph-vertex index of `row[col]`,
    /// with every outside value collapsed onto `outside`.
    ExplicitIds {
        col: usize,
        base: BaseRef,
        outside: u64,
    },
}

#[derive(Default)]
struct MatrixBuilder {
    key_specs: Vec<KeySpec>,
    eq_specs: Vec<EqSpec>,
    /// The schema columns the pass encodes value by value, once each:
    /// those of base keys and of single-column equality slots.
    columns: Vec<usize>,
    /// Dedup equality slots by their column signature — Pareto and Prior
    /// operands over the same attribute set share one encoding.
    eq_cache: HashMap<Vec<usize>, usize>,
}

impl MatrixBuilder {
    /// Compile `node` into a [`ScorePlan`] plus the key/eq lane specs the
    /// pass executes. Purely structural: data-dependent failures
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
                let column = self.column(*col);
                Some(ScorePlan::Key(self.push_key(KeySpec::Base {
                    col: *col,
                    column,
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
            Node::Prior(children) => {
                // The last operand gets no eq slot: nothing follows it.
                let (last, rest) = children.split_last()?;
                let mut built: Vec<_> = (self.children(rest)?.into_iter())
                    .map(|(c, e)| (c, Some(e)))
                    .collect();
                built.push((self.plan(&last.node)?, None));
                Some(ScorePlan::Prior(built))
            }
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

    /// The index of schema column `col` among the encoded columns.
    fn column(&mut self, col: usize) -> usize {
        self.columns
            .iter()
            .position(|&c| c == col)
            .unwrap_or_else(|| {
                self.columns.push(col);
                self.columns.len() - 1
            })
    }

    fn eq_slot(&mut self, cols: &[usize]) -> usize {
        if let Some(&slot) = self.eq_cache.get(cols) {
            return slot;
        }
        let spec = match cols {
            [col] => EqSpec::Column(self.column(*col)),
            _ => EqSpec::Projection(cols.to_vec()),
        };
        self.eq_specs.push(spec);
        let slot = self.eq_specs.len() - 1;
        self.eq_cache.insert(cols.to_vec(), slot);
        slot
    }

    /// The one pass over `r`: every row, or with `reuse` the previous
    /// lanes' prefixes plus the dirty and appended rows. `None` at the
    /// first value that fails to embed.
    fn pass<'s, 'r>(&'s self, r: &'r Relation, reuse: Option<Reuse<'_>>) -> Option<Pass<'s, 'r>> {
        let rows = r.len();
        let prefix = reuse.map_or(0, |ru| ru.prefix_len);
        // A previous lane's first `prefix` codes, extended to `rows`.
        fn extend<T: Copy + Default>(prev: &[T], rows: usize) -> Vec<T> {
            let mut lane = Vec::with_capacity(rows);
            lane.extend_from_slice(prev);
            lane.resize(rows, T::default());
            lane
        }
        let mut pass = Pass {
            r,
            columns: self
                .columns
                .iter()
                .map(|&col| ColumnCodes::new(col))
                .collect(),
            keys: (self.key_specs.iter().enumerate())
                .map(|(slot, spec)| KeyLane {
                    spec,
                    lane: extend(
                        reuse.map_or(&[][..], |ru| &ru.prev.keys[slot][..prefix]),
                        rows,
                    ),
                    memo: Vec::new(),
                })
                .collect(),
            explicit: Vec::new(),
        };
        for (slot, spec) in self.eq_specs.iter().enumerate() {
            // With `reuse`, the previous lane's prefix when it holds
            // per-row codes, `Some(None)` when it is a dictionary lane.
            let prev =
                reuse.map(|ru| ru.prev.eq_row_pure[slot].then(|| &ru.prev.eqs[slot][..prefix]));
            match spec {
                EqSpec::Column(column) => {
                    let codes = &mut pass.columns[*column];
                    codes.lane = Some(extend(prev.flatten().unwrap_or_default(), rows));
                    if let Some(None) = prev {
                        codes.dictionary_lane(r, prefix);
                    }
                }
                EqSpec::ExplicitIds { col, base, outside } => pass.explicit.push(ExplicitLane {
                    col: *col,
                    explicit: base
                        .as_explicit()
                        .expect("ExplicitIds specs are built from EXPLICIT bases"),
                    outside: *outside,
                    lane: extend(prev.flatten().unwrap_or_default(), rows),
                }),
                EqSpec::Projection(_) => {}
            }
        }
        // Dirty rows inside the prefix, then the appended rows, in order.
        for &row in reuse.map_or(&[][..], |ru| ru.dirty) {
            let row = row as usize;
            if row < prefix {
                pass.row(row, prefix, r.row(row))?;
            }
        }
        for row in prefix..rows {
            pass.row(row, row, r.row(row))?;
        }
        Some(pass)
    }
}

/// The state of one build's pass: per encoded column its codes, per key
/// slot its lane, per EXPLICIT slot its vertex ids.
struct Pass<'s, 'r> {
    r: &'r Relation,
    columns: Vec<ColumnCodes<'r>>,
    keys: Vec<KeyLane<'s>>,
    explicit: Vec<ExplicitLane<'s>>,
}

impl<'s, 'r> Pass<'s, 'r> {
    /// Encode row `row`, tuple `t`, into every lane; rows `0..done` hold
    /// codes already (see [`ColumnCodes::dictionary_lane`]).
    fn row(&mut self, row: usize, done: usize, t: &'r Tuple) -> Option<()> {
        for codes in &mut self.columns {
            codes.encode(self.r, row, done, &t[codes.col]);
        }
        for key in &mut self.keys {
            key.lane[row] = key.key(t, &self.columns)?;
        }
        for e in &mut self.explicit {
            e.lane[row] = e
                .explicit
                .vertex_index(&t[e.col])
                .map_or(e.outside, |i| i as u64);
        }
        Some(())
    }

    /// The lanes in slot order, and per eq slot whether its codes are
    /// per-row (patchable by an incremental build).
    fn lanes(mut self, eq_specs: &[EqSpec]) -> (Vec<Vec<f64>>, Vec<Vec<u64>>, Vec<bool>) {
        let keys = self.keys.into_iter().map(|k| k.lane).collect();
        let mut explicit = self.explicit.into_iter();
        let (eqs, pure) = eq_specs
            .iter()
            .map(|spec| match spec {
                EqSpec::Column(column) => {
                    let codes = &mut self.columns[*column];
                    let lane = codes
                        .lane
                        .take()
                        .expect("an eq slot's column keeps its lane");
                    (lane, codes.fingerprints)
                }
                EqSpec::Projection(cols) => {
                    let (ids, _) = self.r.group_ids(cols);
                    (ids.into_iter().map(u64::from).collect(), false)
                }
                EqSpec::ExplicitIds { .. } => {
                    let e = explicit.next().expect("one lane per ExplicitIds slot");
                    (e.lane, true)
                }
            })
            .unzip();
        (keys, eqs, pure)
    }
}

/// One encoded column's codes in a pass.
struct ColumnCodes<'r> {
    col: usize,
    /// First-seen ids of the values that need one.
    dict: Dictionary<'r>,
    /// The column's equality lane, when an eq slot reads it.
    lane: Option<Vec<u64>>,
    /// Does `lane` still hold fingerprints? Until a value without one
    /// arrives; after that every value takes a dictionary id.
    fingerprints: bool,
    /// The current row's dictionary id; `None` when its value is coded
    /// by its fingerprint.
    id: Option<u32>,
}

impl<'r> ColumnCodes<'r> {
    fn new(col: usize) -> Self {
        ColumnCodes {
            col,
            dict: Dictionary::default(),
            lane: None,
            fingerprints: true,
            id: None,
        }
    }

    /// Code row `row`'s value `v`; rows `0..done` hold codes already.
    #[inline]
    fn encode(&mut self, r: &'r Relation, row: usize, done: usize, v: &'r Value) {
        if self.fingerprints {
            if let Some(fp) = v.fingerprint() {
                if let Some(lane) = &mut self.lane {
                    lane[row] = fp;
                }
                self.id = None;
                return;
            }
            if self.lane.is_some() {
                self.dictionary_lane(r, done);
            }
        }
        let id = self.dict.id(v);
        if let Some(lane) = &mut self.lane {
            lane[row] = u64::from(id);
        }
        self.id = Some(id);
    }

    /// Make the lane a dictionary lane: re-encode rows `0..done` in row
    /// order, so its ids are first-seen over the whole column.
    fn dictionary_lane(&mut self, r: &'r Relation, done: usize) {
        self.fingerprints = false;
        let lane = self
            .lane
            .as_mut()
            .expect("only a lane turns into a dictionary lane");
        for (row, code) in lane[..done].iter_mut().enumerate() {
            *code = u64::from(self.dict.id(&r.row(row)[self.col]));
        }
    }
}

/// One key slot's lane in a pass, with its keys per dictionary id of
/// the column a base key reads.
struct KeyLane<'s> {
    spec: &'s KeySpec,
    lane: Vec<f64>,
    /// `memo[id]`: the key of the value with that id, NaN until computed
    /// (a key is never NaN).
    memo: Vec<f64>,
}

impl KeyLane<'_> {
    #[inline]
    fn key(&mut self, t: &Tuple, columns: &[ColumnCodes<'_>]) -> Option<f64> {
        let id = match self.spec {
            KeySpec::Base { column, .. } => columns[*column].id,
            KeySpec::Rank { .. } => None,
        };
        let Some(id) = id else {
            return self.spec.key(t);
        };
        let id = id as usize;
        if id >= self.memo.len() {
            self.memo.resize(id + 1, f64::NAN);
        }
        if self.memo[id].is_nan() {
            self.memo[id] = self.spec.key(t)?;
        }
        Some(self.memo[id])
    }
}

/// One EXPLICIT slot's vertex-id lane in a pass.
struct ExplicitLane<'s> {
    col: usize,
    explicit: &'s Explicit,
    outside: u64,
    lane: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use pref_relation::{DataType, Schema};

    use super::*;
    use crate::base::BasePreference;
    use crate::eval::CompiledPref;
    use crate::term::{around, lowest, pos, Pref};

    /// A base preference whose `dominance_key` counts its calls: the
    /// ordinal for numbers, the length for strings, −1 for NULL.
    #[derive(Debug)]
    struct Counted(Arc<AtomicUsize>);

    impl BasePreference for Counted {
        fn name(&self) -> &'static str {
            "COUNTED"
        }

        fn better(&self, x: &Value, y: &Value) -> bool {
            self.key(x) < self.key(y)
        }

        fn dominance_key(&self, v: &Value) -> Option<f64> {
            // Relaxed: a plain counter, read between builds.
            self.0.fetch_add(1, Ordering::Relaxed);
            self.key(v)
        }
    }

    impl Counted {
        fn key(&self, v: &Value) -> Option<f64> {
            let len = v.as_str().map(|s| s.len() as f64);
            Some(v.ordinal().or(len).unwrap_or(-1.0))
        }
    }

    /// `n` rows over (s: Str, i: Int, f: Float): five distinct strings,
    /// `n` distinct ints, and floats with a NULL at row `null_at`.
    fn table(n: usize, null_at: usize) -> Relation {
        let schema = Schema::new(vec![
            ("s", DataType::Str),
            ("i", DataType::Int),
            ("f", DataType::Float),
        ])
        .unwrap();
        let mut r = Relation::empty(schema);
        for k in 0..n {
            let f = if k == null_at {
                Value::Null
            } else {
                Value::from((k % 7) as f64)
            };
            let s = ["a", "bb", "ccc", "dddd", "eeeee"][k % 5];
            r.push_values(vec![Value::from(s), Value::from(k as i64), f])
                .unwrap();
        }
        r
    }

    fn matrix(p: &Pref, r: &Relation) -> ScoreMatrix {
        CompiledPref::compile(p, r.schema())
            .unwrap()
            .score_matrix(r)
            .unwrap()
    }

    #[test]
    fn dominance_key_runs_once_per_distinct_string_and_once_per_number() {
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = |attr: &str| Pref::base(attr, Counted(Arc::clone(&calls)));
        // Relaxed: as above. Reads the count and resets it.
        let take = || calls.swap(0, Ordering::Relaxed);
        let r = table(1000, usize::MAX);
        for (p, expected) in [
            (counted("s"), 5),
            // With the column's equality lane beside the key: same ids.
            (counted("s").pareto(lowest("i")), 5),
            (counted("i"), 1000),
            (counted("f"), 1000),
        ] {
            matrix(&p, &r);
            assert_eq!(take(), expected, "{p}");
        }
        // A float column with a NULL at row 500. Key-only, the NULL takes
        // an id and every number its fingerprint: one call per row. With
        // the column's eq lane, the NULL turns the lane into a dictionary
        // lane: the 500 rows before it were keyed by fingerprint, the
        // rest once per distinct value (7 floats and the NULL).
        let r = table(1000, 500);
        matrix(&counted("f"), &r);
        assert_eq!(take(), 1000);
        matrix(&counted("f").pareto(lowest("i")), &r);
        assert_eq!(take(), 500 + 8);
    }

    #[test]
    fn a_prior_has_one_eq_slot_fewer_than_its_pareto() {
        let r = table(20, 3);
        let (a, b) = (pos("s", ["a"]), lowest("i"));
        let pareto = matrix(&a.clone().pareto(b.clone()), &r);
        let prior = matrix(&a.clone().prior(b.clone()), &r);
        assert_eq!((pareto.eq_slots(), prior.eq_slots()), (2, 1));
        // The last operand repeats the first's column: one slot, read by
        // the first operand.
        let shared = a.clone().prior(pos("s", ["bb"]));
        assert_eq!(matrix(&shared, &r).eq_slots(), 1);
        // The inner last operand `b` has no slot, and the outer Pareto's
        // `b` gets one of its own: {s, i}, {s}, {i}.
        let nested = Pref::Pareto(vec![a.prior(b.clone()), b]);
        assert_eq!(matrix(&nested, &r).eq_slots(), 3);
    }

    /// The lanes the pass fills hold what a column-at-a-time encoding
    /// would: fingerprints where every value has one, the column's
    /// first-seen dictionary ids ([`Relation::group_ids`]) where one does
    /// not — also when the first value without one comes late, and when
    /// it arrives in an append to a fingerprint lane.
    #[test]
    fn single_column_lanes_hold_fingerprints_or_the_columns_group_ids() {
        let fingerprints = |r: &Relation, col: usize| -> Vec<u64> {
            r.column(col)
                .iter()
                .map(|v| v.fingerprint().unwrap())
                .collect()
        };
        let group_ids = |r: &Relation, col: usize| -> Vec<u64> {
            r.group_ids(&[col]).0.into_iter().map(u64::from).collect()
        };
        // POS(s) ⊗ AROUND(i) ⊗ AROUND(f): slots s, i, f in that order.
        let p = pos("s", ["a"])
            .pareto(around("i", 3))
            .pareto(around("f", 2.0));
        let c = |r: &Relation| CompiledPref::compile(&p, r.schema()).unwrap();
        let dense = table(40, usize::MAX);
        let m = c(&dense).score_matrix(&dense).unwrap();
        assert_eq!(
            m.eqs,
            vec![
                group_ids(&dense, 0),
                fingerprints(&dense, 1),
                fingerprints(&dense, 2)
            ]
        );
        assert_eq!(m.eq_row_pure, vec![false, true, true]);

        let late = table(40, 25);
        let m = c(&late).score_matrix(&late).unwrap();
        assert_eq!(m.eqs[2], group_ids(&late, 2));
        assert_eq!(m.eq_row_pure, vec![false, true, false]);

        // An append of a NULL to the fingerprint lane, and one more row
        // after a dictionary lane: both equal the fresh build.
        let mut grown = dense.clone();
        for f in [Value::Null, Value::from(2.0)] {
            grown
                .push_values(vec![Value::from("zz"), Value::from(-1), f])
                .unwrap();
            let prev = c(&grown)
                .score_matrix(&grown.take_rows(&(0..grown.len() - 1).collect::<Vec<_>>()))
                .unwrap();
            let patched = c(&grown)
                .score_matrix_incremental(&grown, &prev, grown.len() - 1, &[], 1)
                .unwrap();
            let fresh = c(&grown).score_matrix(&grown).unwrap();
            assert_eq!(patched.keys, fresh.keys);
            assert_eq!(patched.eqs, fresh.eqs);
            assert_eq!(patched.eq_row_pure, fresh.eq_row_pure);
            assert_eq!(fresh.eqs[2], group_ids(&grown, 2));
        }
    }
}
