//! Preference terms (Def. 5): the inductive language of preferences.
//!
//! A [`Pref`] is a term built from base preferences by the paper's
//! constructors: dual `P∂`, Pareto accumulation `P1 ⊗ P2`, prioritised
//! accumulation `P1 & P2`, numerical accumulation `rank(F)(P1, P2)`,
//! intersection `P1 ♦ P2` and disjoint union `P1 + P2`, plus anti-chains
//! `S↔`. Each term denotes a strict partial order over the tuples of
//! `dom(A1 ∪ … ∪ Ak)` (Prop. 1 — machine-checked in the test suite).
//!
//! Terms are plain data: the algebra (`crate::algebra`) rewrites them, the
//! evaluator (`crate::eval`) compiles them against a schema, and
//! `Display` prints them in paper notation.

use std::fmt;
use std::sync::Arc;

use pref_relation::{Attr, AttrSet, Value};

use crate::base::{
    base_eq, Around, BasePreference, BaseRef, Between, Explicit, Highest, Layered, Lowest, Neg,
    Pos, PosNeg, PosPos, Score,
};
use crate::error::CoreError;

/// A base preference bound to an attribute name: the `(A, <P)` of Def. 1
/// for a single attribute.
#[derive(Clone, Debug)]
pub struct BasePref {
    pub attr: Attr,
    pub base: BaseRef,
}

impl BasePref {
    pub fn new(attr: impl Into<Attr>, base: impl BasePreference + 'static) -> Self {
        BasePref {
            attr: attr.into(),
            base: Arc::new(base),
        }
    }

    pub fn from_ref(attr: impl Into<Attr>, base: BaseRef) -> Self {
        BasePref {
            attr: attr.into(),
            base,
        }
    }
}

impl PartialEq for BasePref {
    fn eq(&self, other: &Self) -> bool {
        self.attr == other.attr && base_eq(&self.base, &other.base)
    }
}

impl fmt::Display for BasePref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.base.params();
        if params.is_empty() {
            write!(f, "{}({})", self.base.name(), self.attr)
        } else {
            write!(f, "{}({}; {})", self.base.name(), self.attr, params)
        }
    }
}

/// Shared handle to a combining function implementation.
pub type CombineImpl = Arc<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// The multi-attribute combining function `F` of `rank(F)` (Def. 10).
///
/// Carries a name for display and term equality; semantically different
/// combining functions must have different names.
#[derive(Clone)]
pub struct CombineFn {
    name: String,
    f: CombineImpl,
}

impl CombineFn {
    /// Arbitrary named combining function.
    pub fn new(name: impl Into<String>, f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static) -> Self {
        CombineFn {
            name: name.into(),
            f: Arc::new(f),
        }
    }

    /// `F(x1, …, xn) = Σ xi`.
    pub fn sum() -> Self {
        CombineFn::new("sum", |xs: &[f64]| xs.iter().sum())
    }

    /// `F(x1, …, xn) = Σ wi·xi` — Example 5 uses `x1 + 2·x2`.
    pub fn weighted_sum(weights: Vec<f64>) -> Self {
        let name = format!(
            "wsum[{}]",
            weights
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        CombineFn::new(name, move |xs: &[f64]| {
            xs.iter().zip(&weights).map(|(x, w)| x * w).sum()
        })
    }

    /// `F = min(x1, …, xn)`.
    pub fn min() -> Self {
        CombineFn::new("min", |xs: &[f64]| {
            xs.iter().copied().fold(f64::INFINITY, f64::min)
        })
    }

    /// `F = max(x1, …, xn)`.
    pub fn max() -> Self {
        CombineFn::new("max", |xs: &[f64]| {
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        })
    }

    /// The function's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Apply `F`.
    pub fn apply(&self, xs: &[f64]) -> f64 {
        (self.f)(xs)
    }
}

impl fmt::Debug for CombineFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CombineFn")
            .field("name", &self.name)
            .finish()
    }
}

impl PartialEq for CombineFn {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

/// A preference term (Def. 5).
///
/// The enum is public so the algebra can pattern-match; prefer the
/// builder functions ([`pos`], [`around`], …) and combinator methods
/// ([`Pref::pareto`], [`Pref::prior`], …) for construction — they enforce
/// the constructors' preconditions.
#[derive(Clone, Debug, PartialEq)]
pub enum Pref {
    /// A base preference (Def. 6/7).
    Base(BasePref),
    /// Anti-chain `S↔` over an attribute set (Def. 3b).
    Antichain(AttrSet),
    /// Dual `P∂` (Def. 3c).
    Dual(Arc<Pref>),
    /// Pareto accumulation `P1 ⊗ … ⊗ Pn` (Def. 8), stored n-ary
    /// (associativity is Prop. 2b).
    Pareto(Vec<Pref>),
    /// Prioritised accumulation `P1 & … & Pn` (Def. 9), stored n-ary
    /// (associativity is Prop. 2c).
    Prior(Vec<Pref>),
    /// Numerical accumulation `rank(F)(P1, …, Pn)` (Def. 10) over
    /// SCORE-family base preferences.
    Rank(CombineFn, Vec<BasePref>),
    /// Intersection aggregation `P1 ♦ P2` (Def. 11a).
    Inter(Arc<Pref>, Arc<Pref>),
    /// Disjoint union aggregation `P1 + P2` (Def. 11b).
    Union(Arc<Pref>, Arc<Pref>),
}

impl Pref {
    // ---- builders for base preferences -------------------------------

    /// Wrap an existing base preference.
    pub fn base(attr: impl Into<Attr>, base: impl BasePreference + 'static) -> Pref {
        Pref::Base(BasePref::new(attr, base))
    }

    // ---- combinators ---------------------------------------------------

    /// Dual preference `P∂`.
    pub fn dual(self) -> Pref {
        Pref::Dual(Arc::new(self))
    }

    /// Pareto accumulation `self ⊗ other` ("equally important").
    /// Flattens n-ary chains, which is sound by associativity (Prop. 2b).
    pub fn pareto(self, other: Pref) -> Pref {
        match (self, other) {
            (Pref::Pareto(mut a), Pref::Pareto(b)) => {
                a.extend(b);
                Pref::Pareto(a)
            }
            (Pref::Pareto(mut a), b) => {
                a.push(b);
                Pref::Pareto(a)
            }
            (a, Pref::Pareto(mut b)) => {
                b.insert(0, a);
                Pref::Pareto(b)
            }
            (a, b) => Pref::Pareto(vec![a, b]),
        }
    }

    /// Prioritised accumulation `self & other` ("self is more important").
    /// Flattens n-ary chains, sound by associativity (Prop. 2c).
    pub fn prior(self, other: Pref) -> Pref {
        match (self, other) {
            (Pref::Prior(mut a), Pref::Prior(b)) => {
                a.extend(b);
                Pref::Prior(a)
            }
            (Pref::Prior(mut a), b) => {
                a.push(b);
                Pref::Prior(a)
            }
            (a, Pref::Prior(mut b)) => {
                b.insert(0, a);
                Pref::Prior(b)
            }
            (a, b) => Pref::Prior(vec![a, b]),
        }
    }

    /// Intersection aggregation `self ♦ other`; both operands must act on
    /// the same attribute set (Def. 11).
    pub fn intersect(self, other: Pref) -> Result<Pref, CoreError> {
        if self.attributes() != other.attributes() {
            return Err(CoreError::AttrSetMismatch {
                constructor: "♦",
                left: self.attributes().to_string(),
                right: other.attributes().to_string(),
            });
        }
        Ok(Pref::Inter(Arc::new(self), Arc::new(other)))
    }

    /// Disjoint union aggregation `self + other`; both operands must act
    /// on the same attribute set (Def. 11) and have disjoint ranges
    /// (Def. 4) — range disjointness on tuple domains is not decidable in
    /// general, so it is the caller's obligation, as in the paper's own
    /// use (Prop. 4b builds unions that are disjoint by construction).
    pub fn disjoint_union(self, other: Pref) -> Result<Pref, CoreError> {
        if self.attributes() != other.attributes() {
            return Err(CoreError::AttrSetMismatch {
                constructor: "+",
                left: self.attributes().to_string(),
                right: other.attributes().to_string(),
            });
        }
        Ok(Pref::Union(Arc::new(self), Arc::new(other)))
    }

    /// Numerical accumulation `rank(F)(P1, …, Pn)`. Operands must be
    /// SCORE-family base preferences — possibly via constructor
    /// substitutability (AROUND, BETWEEN, LOWEST, HIGHEST qualify, §3.4).
    pub fn rank(combine: CombineFn, inputs: Vec<Pref>) -> Result<Pref, CoreError> {
        if inputs.is_empty() {
            return Err(CoreError::EmptyCombination {
                constructor: "rank(F)",
            });
        }
        let mut bases = Vec::with_capacity(inputs.len());
        for p in inputs {
            match p {
                Pref::Base(b) if b.base.is_numerical() => bases.push(b),
                other => {
                    return Err(CoreError::NotScorable {
                        term: other.to_string(),
                    })
                }
            }
        }
        Ok(Pref::Rank(combine, bases))
    }

    /// n-ary Pareto accumulation.
    pub fn pareto_all(prefs: Vec<Pref>) -> Result<Pref, CoreError> {
        match prefs.len() {
            0 => Err(CoreError::EmptyCombination { constructor: "⊗" }),
            1 => Ok(prefs.into_iter().next().expect("len checked")),
            _ => Ok(Pref::Pareto(prefs)),
        }
    }

    /// n-ary prioritised accumulation.
    pub fn prior_all(prefs: Vec<Pref>) -> Result<Pref, CoreError> {
        match prefs.len() {
            0 => Err(CoreError::EmptyCombination { constructor: "&" }),
            1 => Ok(prefs.into_iter().next().expect("len checked")),
            _ => Ok(Pref::Prior(prefs)),
        }
    }

    // ---- structure -----------------------------------------------------

    /// The attribute set `A` of the preference `(A, <P)`.
    pub fn attributes(&self) -> AttrSet {
        match self {
            Pref::Base(b) => AttrSet::single(b.attr.clone()),
            Pref::Antichain(a) => a.clone(),
            Pref::Dual(p) => p.attributes(),
            Pref::Pareto(ps) | Pref::Prior(ps) => ps
                .iter()
                .fold(AttrSet::empty(), |acc, p| acc.union(&p.attributes())),
            Pref::Rank(_, bs) => AttrSet::new(bs.iter().map(|b| b.attr.clone())),
            Pref::Inter(l, r) | Pref::Union(l, r) => l.attributes().union(&r.attributes()),
        }
    }

    /// Is the denoted order certainly a chain (total order) on its
    /// domain? Conservative: `false` when unknown. Used by Prop. 11.
    pub fn is_chain(&self) -> bool {
        match self {
            Pref::Base(b) => b.base.is_chain(),
            Pref::Antichain(_) => false,
            Pref::Dual(p) => p.is_chain(),
            // Prop. 3h: prioritised accumulation of chains is a chain
            // (for disjoint attribute sets; overlap can break totality).
            Pref::Prior(ps) => {
                ps.iter().all(|p| p.is_chain()) && {
                    let mut seen = AttrSet::empty();
                    ps.iter().all(|p| {
                        let a = p.attributes();
                        let ok = seen.is_disjoint(&a);
                        seen = seen.union(&a);
                        ok
                    })
                }
            }
            _ => false,
        }
    }

    /// All base preferences in the term, with their attributes — the
    /// inputs to the LEVEL/DISTANCE quality functions of Preference SQL.
    pub fn bases(&self) -> Vec<&BasePref> {
        let mut out = Vec::new();
        self.collect_bases(&mut out);
        out
    }

    fn collect_bases<'a>(&'a self, out: &mut Vec<&'a BasePref>) {
        match self {
            Pref::Base(b) => out.push(b),
            Pref::Antichain(_) => {}
            Pref::Dual(p) => p.collect_bases(out),
            Pref::Pareto(ps) | Pref::Prior(ps) => {
                for p in ps {
                    p.collect_bases(out);
                }
            }
            Pref::Rank(_, bs) => out.extend(bs.iter()),
            Pref::Inter(l, r) | Pref::Union(l, r) => {
                l.collect_bases(out);
                r.collect_bases(out);
            }
        }
    }
}

impl fmt::Display for Pref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pref::Base(b) => write!(f, "{b}"),
            Pref::Antichain(a) => write!(f, "{a}↔"),
            Pref::Dual(p) => write!(f, "({p})∂"),
            Pref::Pareto(ps) => join(f, ps, " ⊗ "),
            Pref::Prior(ps) => join(f, ps, " & "),
            Pref::Rank(c, bs) => {
                write!(f, "rank[{}](", c.name())?;
                for (i, b) in bs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, ")")
            }
            Pref::Inter(l, r) => write!(f, "({l} ♦ {r})"),
            Pref::Union(l, r) => write!(f, "({l} + {r})"),
        }
    }
}

fn join(f: &mut fmt::Formatter<'_>, ps: &[Pref], sep: &str) -> fmt::Result {
    write!(f, "(")?;
    for (i, p) in ps.iter().enumerate() {
        if i > 0 {
            write!(f, "{sep}")?;
        }
        write!(f, "{p}")?;
    }
    write!(f, ")")
}

// ---- free-function builders in paper notation -------------------------

/// `POS(A, POS-set)` (Def. 6a).
pub fn pos<V: Into<Value>>(attr: impl Into<Attr>, vals: impl IntoIterator<Item = V>) -> Pref {
    Pref::base(attr, Pos::new(vals))
}

/// `NEG(A, NEG-set)` (Def. 6b).
pub fn neg<V: Into<Value>>(attr: impl Into<Attr>, vals: impl IntoIterator<Item = V>) -> Pref {
    Pref::base(attr, Neg::new(vals))
}

/// `POS/NEG(A, POS-set; NEG-set)` (Def. 6c).
pub fn pos_neg<V: Into<Value>, W: Into<Value>>(
    attr: impl Into<Attr>,
    pos: impl IntoIterator<Item = V>,
    neg: impl IntoIterator<Item = W>,
) -> Result<Pref, CoreError> {
    Ok(Pref::base(attr, PosNeg::new(pos, neg)?))
}

/// `POS/POS(A, POS1-set; POS2-set)` (Def. 6d).
pub fn pos_pos<V: Into<Value>, W: Into<Value>>(
    attr: impl Into<Attr>,
    pos1: impl IntoIterator<Item = V>,
    pos2: impl IntoIterator<Item = W>,
) -> Result<Pref, CoreError> {
    Ok(Pref::base(attr, PosPos::new(pos1, pos2)?))
}

/// `EXPLICIT(A, {(worse, better), …})` (Def. 6e).
pub fn explicit<V: Into<Value>, W: Into<Value>>(
    attr: impl Into<Attr>,
    edges: impl IntoIterator<Item = (V, W)>,
) -> Result<Pref, CoreError> {
    Ok(Pref::base(attr, Explicit::new(edges)?))
}

/// `AROUND(A, z)` (Def. 7a).
pub fn around(attr: impl Into<Attr>, z: impl Into<Value>) -> Pref {
    Pref::base(attr, Around::new(z))
}

/// `BETWEEN(A, [low, up])` (Def. 7b).
pub fn between(
    attr: impl Into<Attr>,
    low: impl Into<Value>,
    up: impl Into<Value>,
) -> Result<Pref, CoreError> {
    Ok(Pref::base(attr, Between::new(low, up)?))
}

/// `LOWEST(A)` (Def. 7c).
pub fn lowest(attr: impl Into<Attr>) -> Pref {
    Pref::base(attr, Lowest::new())
}

/// `HIGHEST(A)` (Def. 7c).
pub fn highest(attr: impl Into<Attr>) -> Pref {
    Pref::base(attr, Highest::new())
}

/// `SCORE(A, f)` (Def. 7d) with a named scoring function.
pub fn score(
    attr: impl Into<Attr>,
    fname: impl Into<String>,
    f: impl Fn(&Value) -> Option<f64> + Send + Sync + 'static,
) -> Pref {
    Pref::base(attr, Score::new(fname, f))
}

/// A layered preference (linear sum of anti-chain layers, §3.3.2).
pub fn layered(
    attr: impl Into<Attr>,
    layers: Vec<crate::base::layered::Layer>,
) -> Result<Pref, CoreError> {
    Ok(Pref::base(attr, Layered::new(layers)?))
}

/// Anti-chain `S↔` over attributes (Def. 3b).
pub fn antichain<A: Into<Attr>>(attrs: impl IntoIterator<Item = A>) -> Pref {
    Pref::Antichain(AttrSet::new(attrs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_in_paper_notation() {
        let p = pos("transmission", ["automatic"]);
        assert_eq!(p.to_string(), "POS(transmission; {'automatic'})");

        let q = around("horsepower", 100).pareto(lowest("price"));
        assert_eq!(q.to_string(), "(AROUND(horsepower; 100) ⊗ LOWEST(price))");

        let r = neg("color", ["gray"]).prior(q.clone());
        assert_eq!(
            r.to_string(),
            "(NEG(color; {'gray'}) & (AROUND(horsepower; 100) ⊗ LOWEST(price)))"
        );

        let d = highest("year").dual();
        assert_eq!(d.to_string(), "(HIGHEST(year))∂");

        let a = antichain(["make"]);
        assert_eq!(a.to_string(), "{make}↔");
    }

    #[test]
    fn attributes_union() {
        let p = pos("a", ["x"]).pareto(lowest("b")).prior(highest("c"));
        assert_eq!(p.attributes(), AttrSet::new(["a", "b", "c"]));
        // shared attributes union once
        let q = pos("color", ["y"]).pareto(neg("color", ["g"]));
        assert_eq!(q.attributes(), AttrSet::new(["color"]));
    }

    #[test]
    fn pareto_flattens() {
        let p = pos("a", ["x"]).pareto(lowest("b")).pareto(highest("c"));
        match p {
            Pref::Pareto(children) => assert_eq!(children.len(), 3),
            other => panic!("expected flattened Pareto, got {other}"),
        }
    }

    #[test]
    fn prior_flattens_left_and_right() {
        let p = pos("a", ["x"]).prior(lowest("b").prior(highest("c")));
        match p {
            Pref::Prior(children) => assert_eq!(children.len(), 3),
            other => panic!("expected flattened Prior, got {other}"),
        }
    }

    #[test]
    fn rank_requires_score_family() {
        let ok = Pref::rank(CombineFn::sum(), vec![around("a", 0), highest("b")]);
        assert!(ok.is_ok());

        let err = Pref::rank(CombineFn::sum(), vec![pos("a", ["x"])]).unwrap_err();
        assert!(matches!(err, CoreError::NotScorable { .. }));

        let err = Pref::rank(CombineFn::sum(), vec![]).unwrap_err();
        assert!(matches!(err, CoreError::EmptyCombination { .. }));
    }

    #[test]
    fn intersect_requires_same_attrs() {
        let ok = lowest("price").intersect(highest("price"));
        assert!(ok.is_ok());
        let err = lowest("price").intersect(highest("mileage")).unwrap_err();
        assert!(matches!(err, CoreError::AttrSetMismatch { .. }));
    }

    #[test]
    fn chains_propagate_through_prior() {
        assert!(lowest("a").is_chain());
        assert!(lowest("a").prior(highest("b")).is_chain());
        assert!(!lowest("a").prior(highest("a")).is_chain()); // shared attr
        assert!(!lowest("a").pareto(highest("b")).is_chain());
        assert!(lowest("a").dual().is_chain());
        assert!(!pos("a", ["x"]).is_chain());
    }

    #[test]
    fn term_equality_is_syntactic() {
        assert_eq!(pos("a", ["x"]), pos("a", ["x"]));
        assert_ne!(pos("a", ["x"]), pos("a", ["y"]));
        assert_ne!(pos("a", ["x"]), pos("b", ["x"]));
        assert_eq!(
            lowest("p").pareto(highest("q")),
            lowest("p").pareto(highest("q"))
        );
    }

    #[test]
    fn bases_collects_leaves() {
        let p = pos("a", ["x"])
            .pareto(lowest("b"))
            .prior(Pref::rank(CombineFn::sum(), vec![around("c", 1)]).unwrap());
        let names: Vec<&str> = p.bases().iter().map(|b| b.base.name()).collect();
        assert_eq!(names, vec!["POS", "LOWEST", "AROUND"]);
    }

    #[test]
    fn combine_fns() {
        assert_eq!(CombineFn::sum().apply(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(
            CombineFn::weighted_sum(vec![1.0, 2.0]).apply(&[5.0, 3.0]),
            11.0
        );
        assert_eq!(CombineFn::min().apply(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(CombineFn::max().apply(&[3.0, 1.0, 2.0]), 3.0);
        assert_eq!(CombineFn::sum(), CombineFn::sum());
    }
}
