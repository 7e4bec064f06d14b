//! Compilation of preference terms against a schema, and the strict
//! partial order semantics of the complex constructors (Def. 8–12).
//!
//! Terms are *logical*; a [`CompiledPref`] is the *physical* form with all
//! attribute names resolved to column indices once, so the O(n²)-ish inner
//! loops of BMO evaluation never touch a hash map.
//!
//! The component equality `xi = yi` used by Pareto and prioritised
//! accumulation is equality of the sub-preference's attribute projection
//! ([`pref_relation::Tuple::eq_on`]). This single definition covers both
//! Example 2 (disjoint attribute sets) and Example 3 (shared attribute
//! sets) of the paper.

use pref_relation::{Relation, Schema, Tuple};

use crate::base::BaseRef;
use crate::error::CoreError;
use crate::term::{CombineFn, Pref};

pub use crate::dominance::{Dominance, MatrixWindow, ParetoAccess, PriorAccess, PriorTail};
pub use crate::matrix::{LaneShape, ScoreMatrix};

/// A preference term compiled against a schema.
#[derive(Debug, Clone)]
pub struct CompiledPref {
    node: Node,
}

#[derive(Debug, Clone)]
pub(crate) enum Node {
    Base {
        col: usize,
        base: BaseRef,
    },
    Antichain,
    Dual(Box<Node>),
    Pareto(Vec<Child>),
    Prior(Vec<Child>),
    Rank {
        combine: CombineFn,
        inputs: Vec<(usize, BaseRef)>,
    },
    Inter(Box<Node>, Box<Node>),
    Union(Box<Node>, Box<Node>),
}

/// A Pareto/Prior operand together with the columns its attribute
/// projection spans (for the `xi = yi` test).
#[derive(Debug, Clone)]
pub(crate) struct Child {
    pub(crate) node: Node,
    pub(crate) eq_cols: Vec<usize>,
}

impl CompiledPref {
    /// Resolve every attribute of `pref` against `schema`.
    pub fn compile(pref: &Pref, schema: &Schema) -> Result<CompiledPref, CoreError> {
        Ok(CompiledPref {
            node: compile_node(pref, schema)?,
        })
    }

    /// The strict better-than test: `x <P y` — is `y` better than `x`?
    pub fn better(&self, x: &Tuple, y: &Tuple) -> bool {
        self.node.better(x, y)
    }

    /// A utility compatible with the order, when one exists:
    /// `x <P y ⟹ utility(x) < utility(y)`. Available for SCORE-family
    /// bases, `rank(F)` with a monotone `F` is the caller's obligation,
    /// and Pareto combinations of scored operands (sum of scores).
    ///
    /// Used by sort-based evaluation (SFS presorting) and top-k.
    pub fn utility(&self, t: &Tuple) -> Option<f64> {
        self.node.utility(t)
    }

    /// Materialize a [`ScoreMatrix`] for this preference over `r`: a
    /// one-pass, columnar encoding of everything `better` needs, so the
    /// O(n²)-ish dominance loops of BMO evaluation become plain `f64`/`u64`
    /// comparisons instead of term-tree walks over [`Value`](pref_relation::Value)s.
    /// The pass reads each tuple once, on the calling thread.
    ///
    /// EXPLICIT base preferences materialize too, via per-row vertex ids
    /// plus the graph's reachability bitset
    /// ([`Reachability`](crate::base::Reachability)); the matrix reports
    /// that through [`ScoreMatrix::explicit_backend`].
    ///
    /// Returns `None` when the term (or a value in the relation) is not
    /// representable — intersection and disjoint-union aggregation,
    /// chains over non-numeric columns — in which case callers fall back
    /// to the generic [`CompiledPref::better`] path.
    ///
    /// `r` must have the schema this preference was compiled against.
    pub fn score_matrix(&self, r: &Relation) -> Option<ScoreMatrix> {
        ScoreMatrix::build(&self.node, r)
    }

    /// [`CompiledPref::score_matrix`]. The build no longer reads
    /// `threads`; the parameter stays only because the repository
    /// benchmark (`perfbench/`) names this signature (ROADMAP item 1(a)).
    pub fn score_matrix_parallel(&self, r: &Relation, _threads: usize) -> Option<ScoreMatrix> {
        self.score_matrix(r)
    }

    /// [`CompiledPref::score_matrix`]: a matrix is built one way, in
    /// full. `prev`, `prefix_len`, `dirty` and `threads` are ignored; the
    /// signature stays only because the repository benchmark's
    /// `perfbench/src/layers.rs` names it (ROADMAP item 1(a)).
    pub fn score_matrix_incremental(
        &self,
        r: &Relation,
        _prev: &ScoreMatrix,
        _prefix_len: usize,
        _dirty: &[u32],
        _threads: usize,
    ) -> Option<ScoreMatrix> {
        self.score_matrix(r)
    }

    /// Would [`CompiledPref::score_matrix`] succeed on `r`? The build's
    /// own success condition — same structural plan, same per-row key
    /// function — run as a lane-free probe with early exit, for planners
    /// that must report the backend without paying for the
    /// materialization (`EXPLAIN` stays an O(n) scan).
    pub fn supports_matrix(&self, r: &Relation) -> bool {
        crate::matrix::supports(&self.node, r)
    }

    /// The batch kernel a score matrix of this term would offer — flat
    /// Pareto lanes ([`Dominance::pareto_access`]) or a Prop. 10 head
    /// split ([`Dominance::prior_access`]) — read off the term's structure
    /// without a relation; `None` when its matrix compares pairwise only.
    pub fn lane_shape(&self) -> Option<LaneShape> {
        crate::matrix::lane_shape(&self.node)
    }

    /// A stable *structural fingerprint* of the compiled term: equal for
    /// two compilations of syntactically equal terms against the same
    /// schema (same resolved column indices, same base constructors with
    /// the same printed parameters), and different with overwhelming
    /// probability otherwise. The fingerprint is a pure function of the
    /// compiled structure — no addresses, no hash-map iteration order —
    /// so it is reproducible across processes and suitable as one half of
    /// a `(relation generation, term fingerprint)` cache key.
    ///
    /// Base preferences are identified by constructor name plus printed
    /// parameters, exactly like [`crate::base::base_eq`]; custom `SCORE`
    /// functions must carry distinct names to be distinguishable.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint::new();
        self.node.fingerprint_into(&mut h);
        h.finish()
    }

    /// Does the term contain EXPLICIT base preferences (the sub-terms the
    /// score matrix materializes via reachability bitsets)? Structural
    /// probe for `EXPLAIN`-style backend reporting.
    pub fn has_explicit(&self) -> bool {
        self.node.has_explicit()
    }

    /// The chain dimensions of a `SKYLINE OF`-shaped term (§6.1): a Pareto
    /// accumulation in which every operand is a chain with an
    /// order-injective score (LOWEST/HIGHEST).
    pub fn chain_dims(&self) -> Option<Vec<(usize, BaseRef)>> {
        match &self.node {
            Node::Pareto(children) => {
                let mut dims = Vec::with_capacity(children.len());
                for c in children {
                    match &c.node {
                        Node::Base { col, base } if base.is_chain() && base.is_numerical() => {
                            dims.push((*col, base.clone()));
                        }
                        _ => return None,
                    }
                }
                Some(dims)
            }
            Node::Base { col, base } if base.is_chain() && base.is_numerical() => {
                Some(vec![(*col, base.clone())])
            }
            _ => None,
        }
    }
}

fn compile_node(pref: &Pref, schema: &Schema) -> Result<Node, CoreError> {
    Ok(match pref {
        Pref::Base(b) => Node::Base {
            col: schema
                .index_of(&b.attr)
                .ok_or_else(|| CoreError::UnknownAttr(b.attr.clone()))?,
            base: b.base.clone(),
        },
        Pref::Antichain(attrs) => {
            // Resolve eagerly so unknown attributes fail at compile time
            // even though the anti-chain itself never compares columns.
            for a in attrs.iter() {
                schema
                    .index_of(a)
                    .ok_or_else(|| CoreError::UnknownAttr(a.clone()))?;
            }
            Node::Antichain
        }
        Pref::Dual(p) => Node::Dual(Box::new(compile_node(p, schema)?)),
        Pref::Pareto(ps) => Node::Pareto(compile_children(ps, schema)?),
        Pref::Prior(ps) => Node::Prior(compile_children(ps, schema)?),
        Pref::Rank(combine, bases) => {
            let mut inputs = Vec::with_capacity(bases.len());
            for b in bases {
                let col = schema
                    .index_of(&b.attr)
                    .ok_or_else(|| CoreError::UnknownAttr(b.attr.clone()))?;
                inputs.push((col, b.base.clone()));
            }
            Node::Rank {
                combine: combine.clone(),
                inputs,
            }
        }
        Pref::Inter(l, r) => Node::Inter(
            Box::new(compile_node(l, schema)?),
            Box::new(compile_node(r, schema)?),
        ),
        Pref::Union(l, r) => Node::Union(
            Box::new(compile_node(l, schema)?),
            Box::new(compile_node(r, schema)?),
        ),
    })
}

fn compile_children(ps: &[Pref], schema: &Schema) -> Result<Vec<Child>, CoreError> {
    ps.iter()
        .map(|p| {
            let node = compile_node(p, schema)?;
            let attrs = p.attributes();
            let mut eq_cols = Vec::with_capacity(attrs.len());
            for a in attrs.iter() {
                eq_cols.push(
                    schema
                        .index_of(a)
                        .ok_or_else(|| CoreError::UnknownAttr(a.clone()))?,
                );
            }
            Ok(Child { node, eq_cols })
        })
        .collect()
}

/// FNV-1a accumulator for structural fingerprints. Deliberately *not*
/// `std::hash::Hasher`-based: the std trait gives no stability guarantee
/// across releases, while cache keys derived here must be reproducible.
struct Fingerprint(u64);

impl Fingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fingerprint(Self::OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
    }

    /// Structural tag separating node kinds and field boundaries.
    fn tag(&mut self, t: u8) {
        self.byte(t);
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Length-prefixed so `("ab", "c")` and `("a", "bc")` differ.
    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.as_bytes() {
            self.byte(*b);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Node {
    fn fingerprint_into(&self, h: &mut Fingerprint) {
        match self {
            Node::Base { col, base } => {
                h.tag(1);
                h.word(*col as u64);
                h.str(base.name());
                h.str(&base.params());
            }
            Node::Antichain => h.tag(2),
            Node::Dual(inner) => {
                h.tag(3);
                inner.fingerprint_into(h);
            }
            Node::Pareto(children) | Node::Prior(children) => {
                h.tag(if matches!(self, Node::Pareto(_)) {
                    4
                } else {
                    5
                });
                h.word(children.len() as u64);
                for c in children {
                    c.node.fingerprint_into(h);
                    h.word(c.eq_cols.len() as u64);
                    for col in &c.eq_cols {
                        h.word(*col as u64);
                    }
                }
            }
            Node::Rank { combine, inputs } => {
                h.tag(6);
                h.str(combine.name());
                h.word(inputs.len() as u64);
                for (col, base) in inputs {
                    h.word(*col as u64);
                    h.str(base.name());
                    h.str(&base.params());
                }
            }
            Node::Inter(l, r) | Node::Union(l, r) => {
                h.tag(if matches!(self, Node::Inter(..)) {
                    7
                } else {
                    8
                });
                l.fingerprint_into(h);
                r.fingerprint_into(h);
            }
        }
    }

    fn has_explicit(&self) -> bool {
        match self {
            Node::Base { base, .. } => base.as_explicit().is_some(),
            Node::Antichain | Node::Rank { .. } => false,
            Node::Dual(inner) => inner.has_explicit(),
            Node::Pareto(children) | Node::Prior(children) => {
                children.iter().any(|c| c.node.has_explicit())
            }
            Node::Inter(l, r) | Node::Union(l, r) => l.has_explicit() || r.has_explicit(),
        }
    }

    fn better(&self, x: &Tuple, y: &Tuple) -> bool {
        match self {
            Node::Base { col, base } => base.better(&x[*col], &y[*col]),
            Node::Antichain => false,
            Node::Dual(inner) => inner.better(y, x),
            // Def. 8 (n-ary form): y beats x iff on every component y is
            // better or equal, and on at least one it is strictly better.
            Node::Pareto(children) => {
                let mut any_strict = false;
                for c in children {
                    if c.node.better(x, y) {
                        any_strict = true;
                    } else if !x.eq_on(y, &c.eq_cols) {
                        return false;
                    }
                }
                any_strict
            }
            // Def. 9 (n-ary form): lexicographic — the first component
            // where the projections differ decides.
            Node::Prior(children) => {
                for c in children {
                    if c.node.better(x, y) {
                        return true;
                    }
                    if !x.eq_on(y, &c.eq_cols) {
                        return false;
                    }
                }
                false
            }
            // Def. 10: x < y iff F(f1(x1),…) < F(f1(y1),…).
            Node::Rank { combine, inputs } => {
                let fx = rank_value(combine, inputs, x);
                let fy = rank_value(combine, inputs, y);
                fx < fy
            }
            Node::Inter(l, r) => l.better(x, y) && r.better(x, y),
            Node::Union(l, r) => l.better(x, y) || r.better(x, y),
        }
    }

    fn utility(&self, t: &Tuple) -> Option<f64> {
        match self {
            Node::Base { col, base } => base.score(&t[*col]),
            Node::Rank { combine, inputs } => Some(rank_value(combine, inputs, t)),
            Node::Dual(inner) => inner.utility(t).map(|u| -u),
            // Sum of component utilities: strictly monotone w.r.t. the
            // Pareto order because each component's `better` implies a
            // strictly higher component score and component equality
            // implies equal scores.
            Node::Pareto(children) => {
                let mut sum = 0.0;
                for c in children {
                    sum += c.node.utility(t)?;
                }
                Some(sum)
            }
            _ => None,
        }
    }
}

pub(crate) fn rank_value(combine: &CombineFn, inputs: &[(usize, BaseRef)], t: &Tuple) -> f64 {
    let scores: Vec<f64> = inputs
        .iter()
        .map(|(col, base)| base.score(&t[*col]).unwrap_or(f64::NEG_INFINITY))
        .collect();
    combine.apply(&scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spo::check_spo;
    use crate::term::{around, highest, lowest, neg, pos, Pref};
    use pref_relation::{rel, Relation, Value};
    use std::sync::Arc;

    fn compile(p: &Pref, r: &Relation) -> CompiledPref {
        CompiledPref::compile(p, r.schema()).unwrap()
    }

    /// Example 2's relation R(A1, A2, A3).
    fn example2_rel() -> Relation {
        rel! {
            ("A1": Int, "A2": Int, "A3": Int);
            (-5, 3, 4),
            (-5, 4, 4),
            (5, 1, 8),
            (5, 6, 6),
            (-6, 0, 6),
            (-6, 0, 4),
            (6, 2, 7),
        }
    }

    fn example2_pref() -> Pref {
        around("A1", 0).pareto(lowest("A2")).pareto(highest("A3"))
    }

    #[test]
    fn compile_rejects_unknown_attrs() {
        let r = example2_rel();
        let err = CompiledPref::compile(&lowest("missing"), r.schema()).unwrap_err();
        assert!(matches!(err, CoreError::UnknownAttr(_)));
        let err =
            CompiledPref::compile(&crate::term::antichain(["missing"]), r.schema()).unwrap_err();
        assert!(matches!(err, CoreError::UnknownAttr(_)));
    }

    #[test]
    fn example2_pareto_better_than_graph_relations() {
        let r = example2_rel();
        let c = compile(&example2_pref(), &r);
        let rows = r.to_owned_rows();
        // From the drawn graph: val2 < val1, val4 < val3, val7 < val3,
        // val6 < val5; the level-1 values are pairwise unranked.
        assert!(c.better(&rows[1], &rows[0])); // val2 < val1
        assert!(c.better(&rows[3], &rows[2])); // val4 < val3
        assert!(c.better(&rows[6], &rows[2])); // val7 < val3
        assert!(c.better(&rows[5], &rows[4])); // val6 < val5
        for &(a, b) in &[(0usize, 2usize), (0, 4), (2, 4)] {
            assert!(
                !c.better(&rows[a], &rows[b]),
                "val{} vs val{}",
                a + 1,
                b + 1
            );
            assert!(!c.better(&rows[b], &rows[a]));
        }
    }

    #[test]
    fn pareto_requires_no_worse_component() {
        // Def. 8: "it is not tolerable that v is worse than w in any
        // component value."
        let r = rel! {
            ("A1": Int, "A2": Int);
            (0, 0),   // best on A1, worst on A2
            (9, 9),   // worst on A1, best on A2
        };
        let p = around("A1", 0).pareto(highest("A2"));
        let c = compile(&p, &r);
        assert!(!c.better(r.row(0), r.row(1)));
        assert!(!c.better(r.row(1), r.row(0)));
    }

    #[test]
    fn example3_shared_attribute_pareto() {
        // P7 = POS(Color,{green,yellow}) ⊗ NEG(Color,{red,green,blue,purple})
        let r = rel! {
            ("color": Str);
            ("red",), ("green",), ("yellow",), ("blue",), ("black",), ("purple",),
        };
        let p = pos("color", ["green", "yellow"])
            .pareto(neg("color", ["red", "green", "blue", "purple"]));
        let c = compile(&p, &r);
        let row = |i: usize| r.row(i);
        // On a shared attribute, Pareto needs BOTH operands to agree
        // (Prop. 6: ⊗ ≡ ♦ there). Only yellow wins both views, so only
        // yellow dominates the NEG values; green and black are maximal
        // but dominate nothing — the "non-discriminating compromise".
        for &loser in &[0usize, 3, 5] {
            assert!(c.better(row(loser), row(2)), "{loser} < yellow");
            assert!(!c.better(row(2), row(loser)));
            // green (P5's view) and black (P6's view) do not dominate.
            assert!(!c.better(row(loser), row(1)));
            assert!(!c.better(row(loser), row(4)));
        }
        // Paper figure: Level 1 = {yellow, green, black},
        //               Level 2 = {red, blue, purple}.
        let g = crate::graph::BetterGraph::from_relation(&c, &r).unwrap();
        assert_eq!(g.maximal(), vec![1, 2, 4]);
        assert_eq!(g.level_groups(), vec![vec![1, 2, 4], vec![0, 3, 5]]);
    }

    #[test]
    fn prior_is_lexicographic() {
        let r = rel! {
            ("A1": Int, "A2": Int);
            (1, 9),
            (1, 2),
            (5, 0),
        };
        // LOWEST(A1) & LOWEST(A2)
        let p = lowest("A1").prior(lowest("A2"));
        let c = compile(&p, &r);
        let rows = r.to_owned_rows();
        assert!(c.better(&rows[0], &rows[1])); // tie on A1, A2 decides
        assert!(c.better(&rows[2], &rows[0])); // A1 decides
        assert!(c.better(&rows[2], &rows[1]));
        assert!(!c.better(&rows[1], &rows[2]));
    }

    #[test]
    fn antichain_prior_is_grouping() {
        // A↔ & P ranks only within equal A-values (the Def. 16 derivation).
        let r = rel! {
            ("make": Str, "price": Int);
            ("audi", 10),
            ("audi", 20),
            ("bmw", 5),
        };
        let p = crate::term::antichain(["make"]).prior(lowest("price"));
        let c = compile(&p, &r);
        let rows = r.to_owned_rows();
        assert!(c.better(&rows[1], &rows[0])); // same make, cheaper
        assert!(!c.better(&rows[0], &rows[2])); // different make: unranked
        assert!(!c.better(&rows[2], &rows[0]));
    }

    #[test]
    fn rank_example5() {
        // Example 5: f1 = distance(x,0), f2 = distance(x,−2), F = x1 + 2·x2.
        let r = rel! {
            ("A1": Int, "A2": Int);
            (-5, 3),
            (-5, 4),
            (5, 1),
            (5, 6),
            (-6, 0),
            (-6, 0),
        };
        let f1 = crate::term::score("A1", "dist0", |v| v.ordinal().map(|o| o.abs()));
        let f2 = crate::term::score("A2", "dist-2", |v| v.ordinal().map(|o| (o + 2.0).abs()));
        let p = Pref::rank(CombineFn::weighted_sum(vec![1.0, 2.0]), vec![f1, f2]).unwrap();
        let c = compile(&p, &r);
        // F-values: 15, 17, 11, 21, 10, 10 → chain val4→val2→val1→val3→{val5,val6}
        let rows = r.to_owned_rows();
        let f = |i: usize| {
            // recover F via utility
            c.utility(&rows[i]).unwrap()
        };
        assert_eq!(f(0), 15.0);
        assert_eq!(f(1), 17.0);
        assert_eq!(f(2), 11.0);
        assert_eq!(f(3), 21.0);
        assert_eq!(f(4), 10.0);
        assert!(c.better(&rows[1], &rows[3])); // val2 < val4
        assert!(c.better(&rows[0], &rows[1])); // val1 < val2
        assert!(c.better(&rows[2], &rows[0])); // val3 < val1
        assert!(c.better(&rows[4], &rows[2])); // val5 < val3
                                               // val5 and val6 unranked (equal F)
        assert!(!c.better(&rows[4], &rows[5]));
        assert!(!c.better(&rows[5], &rows[4]));
    }

    #[test]
    fn dual_flips_everything() {
        let r = example2_rel();
        let p = example2_pref();
        let c = compile(&p, &r);
        let d = compile(&p.clone().dual(), &r);
        for x in r.iter() {
            for y in r.iter() {
                assert_eq!(c.better(x, y), d.better(y, x));
            }
        }
    }

    #[test]
    fn compiled_orders_are_spos_on_sample() {
        let r = example2_rel();
        for p in [
            example2_pref(),
            around("A1", 0).prior(lowest("A2")),
            example2_pref().dual(),
            lowest("A1").intersect(highest("A1")).unwrap(),
        ] {
            let c = compile(&p, &r);
            check_spo(r.len(), |x, y| c.better(r.row(x), r.row(y)))
                .unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }

    #[test]
    fn score_matrix_agrees_with_generic_better() {
        let r = example2_rel();
        for p in [
            example2_pref(),
            around("A1", 0).prior(lowest("A2")),
            example2_pref().dual(),
            lowest("A1").prior(crate::term::antichain(["A2"]).prior(highest("A3"))),
            Pref::rank(CombineFn::sum(), vec![lowest("A1"), highest("A2")]).unwrap(),
        ] {
            let c = compile(&p, &r);
            let m = c
                .score_matrix(&r)
                .unwrap_or_else(|| panic!("{p} should materialize"));
            assert_eq!(m.len(), r.len());
            for x in 0..r.len() {
                for y in 0..r.len() {
                    assert_eq!(
                        m.better(x, y),
                        c.better(r.row(x), r.row(y)),
                        "matrix diverged for {p} on rows {x}, {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn score_matrix_handles_shared_attribute_pareto() {
        // Example 3's P7: both operands read the same column, so the
        // equality slots must encode the same projection once.
        let r = rel! {
            ("color": Str);
            ("red",), ("green",), ("yellow",), ("blue",), ("black",), ("purple",),
        };
        let p = pos("color", ["green", "yellow"])
            .pareto(neg("color", ["red", "green", "blue", "purple"]));
        let c = compile(&p, &r);
        let m = c.score_matrix(&r).expect("level-based bases materialize");
        assert_eq!(m.eq_slots(), 1, "shared projection should be deduplicated");
        for x in 0..r.len() {
            for y in 0..r.len() {
                assert_eq!(m.better(x, y), c.better(r.row(x), r.row(y)));
            }
        }
    }

    #[test]
    fn score_matrix_flattens_skyline_shapes() {
        let r = example2_rel();
        let c = compile(&lowest("A1").pareto(highest("A2")), &r);
        let m = c.score_matrix(&r).unwrap();
        assert_eq!(m.key_slots(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn score_matrix_unavailable_for_non_embeddable_terms() {
        let r = rel! { ("color": Str); ("red",), ("green",) };
        // Chains over string columns compare lexically, off the f64 axis.
        let p = lowest("color");
        assert!(compile(&p, &r).score_matrix(&r).is_none());
        // Intersection aggregation is not materialized.
        let r2 = example2_rel();
        let p = lowest("A1").intersect(highest("A1")).unwrap();
        assert!(compile(&p, &r2).score_matrix(&r2).is_none());
    }

    #[test]
    fn explicit_materializes_via_reachability_bitsets() {
        // Example 1's EXPLICIT graph over a column with in-graph, outside
        // and duplicate values: the matrix backend must agree pointwise
        // with the term walk and report itself as the EXPLICIT backend.
        let r = rel! {
            ("color": Str);
            ("white",), ("red",), ("yellow",), ("green",), ("brown",),
            ("black",), ("yellow",),
        };
        let e = crate::term::explicit(
            "color",
            [("green", "yellow"), ("green", "red"), ("yellow", "white")],
        )
        .unwrap();
        for p in [
            e.clone(),
            e.clone().dual(),
            e.clone().pareto(lowest("color").dual().dual()).dual(),
            e.clone().prior(crate::term::antichain(["color"])),
        ] {
            let c = compile(&p, &r);
            // The pareto case mixes EXPLICIT with a non-embeddable chain
            // (string LOWEST): the whole term must *not* materialize.
            match c.score_matrix(&r) {
                Some(m) => {
                    assert!(c.supports_matrix(&r));
                    assert!(m.explicit_backend(), "{p} should report the backend");
                    for x in 0..r.len() {
                        for y in 0..r.len() {
                            assert_eq!(
                                m.better(x, y),
                                c.better(r.row(x), r.row(y)),
                                "bitset backend diverged for {p} on rows {x}, {y}"
                            );
                        }
                    }
                }
                None => assert!(!c.supports_matrix(&r), "probe must mirror build for {p}"),
            }
        }
        // Pure-key matrices do not claim the EXPLICIT backend.
        let r2 = example2_rel();
        let m = compile(&lowest("A1"), &r2).score_matrix(&r2).unwrap();
        assert!(!m.explicit_backend());

        // The probe is the build's success condition on data-dependent
        // failures too: one late non-embeddable value, and a rank(F)
        // that is NaN on a single row.
        let nan_on_one_row = crate::term::score("A1", "nan-at-5", |v| {
            v.ordinal().map(|o| if o == 5.0 { f64::NAN } else { o })
        });
        let ranked = Pref::rank(CombineFn::sum(), vec![nan_on_one_row, highest("A2")]).unwrap();
        let late_null = big_rel_with_a_late_null();
        for (p, r, builds) in [
            (example2_pref(), &late_null, false),
            (lowest("A1").pareto(highest("A3")), &late_null, true),
            (ranked.clone(), &r2, false),
            (ranked, &r2.select(|t| t[0] != Value::from(5)), true),
        ] {
            let c = compile(&p, r);
            assert_eq!(c.score_matrix(r).is_some(), builds, "{p}");
            assert_eq!(
                c.supports_matrix(r),
                builds,
                "probe must mirror build for {p}"
            );
        }
    }

    #[test]
    fn fingerprints_are_stable_and_structural() {
        let r = example2_rel();
        let fp = |p: &Pref| compile(p, &r).fingerprint();

        // Recompilation and syntactic equality agree.
        assert_eq!(fp(&example2_pref()), fp(&example2_pref()));
        assert_eq!(
            fp(&lowest("A1").pareto(highest("A2"))),
            fp(&lowest("A1").pareto(highest("A2")))
        );

        // Structure, parameters, attributes, and operator all matter.
        let distinct = [
            lowest("A1"),
            lowest("A2"),
            highest("A1"),
            around("A1", 0),
            around("A1", 1),
            lowest("A1").dual(),
            lowest("A1").pareto(highest("A2")),
            highest("A2").pareto(lowest("A1")),
            lowest("A1").prior(highest("A2")),
            lowest("A1").intersect(highest("A1")).unwrap(),
            crate::term::antichain(["A1"]).prior(lowest("A2")),
            Pref::rank(CombineFn::sum(), vec![lowest("A1"), highest("A2")]).unwrap(),
            Pref::rank(CombineFn::min(), vec![lowest("A1"), highest("A2")]).unwrap(),
        ];
        let fps: Vec<u64> = distinct.iter().map(fp).collect();
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(
                    fps[i], fps[j],
                    "fingerprint collision between {} and {}",
                    distinct[i], distinct[j]
                );
            }
        }
    }

    #[test]
    fn score_matrix_on_empty_relation() {
        let r = rel! { ("a": Int); };
        let m = compile(&lowest("a"), &r).score_matrix(&r).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.key_slots(), 1);
    }

    /// The rows of [`big_rel`], with row `i` replaced where `patch`
    /// returns a replacement.
    fn big_rel_patched(n: usize, patch: impl Fn(usize) -> Option<Vec<Value>>) -> Relation {
        let mut r = rel! { ("A1": Int, "A2": Int, "A3": Int); };
        for i in 0..n {
            let k = i as i64;
            let row = patch(i).unwrap_or_else(|| {
                vec![
                    Value::from(k % 97 - 48),
                    Value::from((k * 31) % 101),
                    Value::from(k % 7),
                ]
            });
            r.push_values(row).unwrap();
        }
        r
    }

    /// `n` deterministic rows over R(A1, A2, A3) with plenty of ties.
    fn big_rel(n: usize) -> Relation {
        big_rel_patched(n, |_| None)
    }

    /// Rows for three 4096-row ranges plus a one-row remainder.
    const BIG: usize = 3 * 4096 + 1;

    /// `big_rel(BIG)` with a NULL — no dominance key under a chain — in
    /// its last row.
    fn big_rel_with_a_late_null() -> Relation {
        big_rel_patched(BIG, |i| {
            (i == BIG - 1).then(|| vec![Value::from(0), Value::Null, Value::from(0)])
        })
    }

    #[test]
    fn parallel_builds_equal_the_sequential_build_lane_for_lane() {
        let r = big_rel(BIG);
        for p in [
            example2_pref(),
            around("A1", 0).prior(lowest("A2")),
            Pref::rank(CombineFn::sum(), vec![lowest("A1"), highest("A2")]).unwrap(),
        ] {
            let c = compile(&p, &r);
            let seq = c.score_matrix(&r).unwrap();
            for threads in [1, 2, 3, 8] {
                let m = c.score_matrix_parallel(&r, threads).unwrap();
                assert_eq!((m.len(), m.key_slots()), (BIG, seq.key_slots()));
                for slot in 0..seq.key_slots() {
                    for row in 0..BIG {
                        assert_eq!(
                            m.key_at(row, slot).to_bits(),
                            seq.key_at(row, slot).to_bits(),
                            "{p}: {threads} threads diverged at row {row}, slot {slot}"
                        );
                    }
                }
                for x in (0..BIG).step_by(397) {
                    for y in (0..BIG).step_by(401) {
                        assert_eq!(m.better(x, y), seq.better(x, y));
                        assert_eq!(m.better(x, y), c.better(r.row(x), r.row(y)));
                    }
                }
            }
        }

        // One value that cannot embed, in the last row, fails the whole
        // build whatever the thread count.
        let r = big_rel_with_a_late_null();
        let c = compile(&example2_pref(), &r);
        for threads in [1, 2, 3, 8] {
            assert!(c.score_matrix_parallel(&r, threads).is_none());
        }
        assert!(!c.supports_matrix(&r));
    }

    #[test]
    fn pareto_access_gathers_matrix_and_window_rows() {
        let r = example2_rel();
        let c = compile(&example2_pref(), &r);
        let m = Arc::new(c.score_matrix(&r).unwrap());
        let acc = Dominance::pareto_access(&*m).expect("flat Pareto exposes lanes");
        assert_eq!(acc.dims(), 3);
        assert_eq!(acc.len(), r.len());

        // Reconstruct `better` from gathered lanes and cross-check.
        let gathered_better = |acc: &ParetoAccess<'_>, x: usize, y: usize| {
            let d = acc.dims();
            let (mut kx, mut ky) = (vec![0.0; d], vec![0.0; d]);
            let (mut ex, mut ey) = (vec![0u64; d], vec![0u64; d]);
            acc.gather(x, &mut kx, &mut ex);
            acc.gather(y, &mut ky, &mut ey);
            let mut any_strict = false;
            for i in 0..d {
                if kx[i] < ky[i] {
                    any_strict = true;
                } else if ex[i] != ey[i] {
                    return false;
                }
            }
            any_strict
        };
        for x in 0..r.len() {
            for y in 0..r.len() {
                assert_eq!(gathered_better(&acc, x, y), m.better(x, y));
            }
        }

        // Windowed access goes through the ids map.
        let ids: Arc<[u32]> = Arc::from(vec![6u32, 0, 3].as_slice());
        let w = MatrixWindow::windowed(Arc::clone(&m), ids);
        let wacc = Dominance::pareto_access(&w).unwrap();
        assert_eq!(wacc.len(), 3);
        for x in 0..3 {
            for y in 0..3 {
                assert_eq!(gathered_better(&wacc, x, y), w.better(x, y));
            }
        }
        // A restriction composes its rows onto the window's ids.
        let inner = w.restrict(&[2, 0]);
        let base = [3, 6];
        assert_eq!(inner.len(), 2);
        for x in 0..2 {
            for y in 0..2 {
                assert_eq!(inner.better(x, y), m.better(base[x], base[y]));
            }
        }

        // Non-flat plans expose no lanes.
        let prior = compile(&lowest("A1").prior(lowest("A2")), &r);
        let pm = prior.score_matrix(&r).unwrap();
        assert!(Dominance::pareto_access(&pm).is_none());
    }

    #[test]
    fn prior_access_splits_single_lane_heads_from_their_tail() {
        let r = example2_rel();
        let explicit = crate::term::explicit("A3", [(4, 6)]).unwrap();
        let tail = lowest("A2").pareto(highest("A3"));
        for (p, heads, tail_kind) in [
            (around("A1", 0).prior(tail.clone()), 1, "lanes"),
            (
                Pref::Prior(vec![around("A1", 0), lowest("A2"), tail.clone()]),
                2,
                "lanes",
            ),
            (around("A1", 0).prior(lowest("A2")), 2, "empty"),
            (around("A1", 0).prior(explicit), 1, "pairwise"),
            (around("A1", 0), 1, "empty"),
        ] {
            let c = compile(&p, &r);
            assert_eq!(c.lane_shape(), Some(LaneShape::HeadSplit), "{p}");
            let m = Arc::new(c.score_matrix(&r).unwrap());
            assert!(Dominance::pareto_access(&*m).is_none());
            let ids: Arc<[u32]> = Arc::from(vec![5u32, 2, 3].as_slice());
            let w = MatrixWindow::windowed(Arc::clone(&m), ids.clone());
            for (acc, rows) in [
                (m.prior_access().unwrap(), (0..r.len()).collect::<Vec<_>>()),
                (
                    w.prior_access().unwrap(),
                    ids.iter().map(|&i| i as usize).collect(),
                ),
            ] {
                assert_eq!((acc.heads(), acc.len()), (heads, rows.len()), "{p}");
                let kind = match acc.tail() {
                    PriorTail::Empty => "empty",
                    PriorTail::Lanes(t) => {
                        assert_eq!((t.dims(), t.len()), (2, rows.len()));
                        "lanes"
                    }
                    PriorTail::Pairwise => "pairwise",
                };
                assert_eq!(kind, tail_kind, "{p}");
                // Head 0 is AROUND(A1; 0): key −|A1|, code = the value.
                for (j, &i) in rows.iter().enumerate() {
                    let a1 = r.row(i)[0].as_int().unwrap();
                    assert_eq!(acc.key(0).unwrap()(j), -(a1.abs() as f64));
                    if heads > 1 || tail_kind != "empty" {
                        let same = |k: usize| acc.code(j, 0) == acc.code(k, 0);
                        let equal = |k: usize| a1 == r.row(rows[k])[0].as_int().unwrap();
                        assert!((0..rows.len()).all(|k| same(k) == equal(k)));
                    }
                }
            }
        }
        // An anti-chain that an operand follows is a head with no key
        // (Def. 16's grouping), and so is a lone one; a last anti-chain
        // is a pairwise tail.
        for (p, keyed, tail_kind) in [
            (crate::term::antichain(["A1"]).prior(tail), false, "lanes"),
            (crate::term::antichain(["A1"]), false, "empty"),
            (
                lowest("A1").prior(crate::term::antichain(["A2"])),
                true,
                "pairwise",
            ),
        ] {
            let c = compile(&p, &r);
            assert_eq!(c.lane_shape(), Some(LaneShape::HeadSplit), "{p}");
            let m = c.score_matrix(&r).unwrap();
            let acc = m.prior_access().unwrap();
            assert_eq!((acc.heads(), acc.key(0).is_some()), (1, keyed), "{p}");
            let kind = match acc.tail() {
                PriorTail::Empty => "empty",
                PriorTail::Lanes(_) => "lanes",
                PriorTail::Pairwise => "pairwise",
            };
            assert_eq!(kind, tail_kind, "{p}");
        }
        // Flat Pareto orders and Pareto heads offer no head split.
        for p in [example2_pref(), example2_pref().prior(lowest("A2"))] {
            let c = compile(&p, &r);
            assert!(c.score_matrix(&r).unwrap().prior_access().is_none(), "{p}");
        }
        assert_eq!(
            compile(&example2_pref(), &r).lane_shape(),
            Some(LaneShape::Flat)
        );
        let pareto_head = example2_pref().prior(lowest("A2"));
        assert_eq!(compile(&pareto_head, &r).lane_shape(), None);
    }

    #[test]
    fn pareto_utility_is_monotone() {
        let r = example2_rel();
        let p = example2_pref();
        let c = compile(&p, &r);
        for x in r.iter() {
            for y in r.iter() {
                if c.better(x, y) {
                    assert!(c.utility(x).unwrap() < c.utility(y).unwrap());
                }
            }
        }
    }
}
