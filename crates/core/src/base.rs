//! Base preferences: strict partial orders on a single attribute's domain.
//!
//! The paper distinguishes *non-numerical* base preference constructors
//! (POS, NEG, POS/NEG, POS/POS, EXPLICIT — Def. 6) from *numerical* ones
//! (AROUND, BETWEEN, LOWEST, HIGHEST, SCORE — Def. 7). All of them
//! instantiate the [`BasePreference`] trait below; user code can add new
//! base constructors by implementing the same trait ("both the set of base
//! preferences and the set of complex preference constructors can be
//! enlarged", §3.1).

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use pref_relation::Value;

pub mod around;
pub mod between;
pub mod combinators;
pub mod explicit;
pub mod extremal;
pub mod layered;
pub mod neg;
pub mod pos;
pub mod pos_neg;
pub mod pos_pos;
pub mod score;

pub use around::Around;
pub use between::Between;
pub use combinators::{AntichainBase, DualBase, InterBase, LinearSum, SubsetBase, UnionBase};
pub use explicit::{Explicit, Reachability};
pub use extremal::{Highest, Lowest};
pub use layered::Layered;
pub use neg::Neg;
pub use pos::Pos;
pub use pos_neg::PosNeg;
pub use pos_pos::PosPos;
pub use score::Score;

/// The finite part of `range(<P)` (Def. 4), used to validate disjoint
/// unions. `Known(s)` means `range(<P) ⊆ s` holds exactly; `Unbounded`
/// means the range covers (an unknown, typically infinite, part of) the
/// domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Range {
    Known(HashSet<Value>),
    Unbounded,
}

impl Range {
    /// Are two ranges certainly disjoint? `None` = cannot tell.
    pub fn disjoint_with(&self, other: &Range) -> Option<bool> {
        match (self, other) {
            (Range::Known(a), Range::Known(b)) => Some(a.is_disjoint(b)),
            _ => None,
        }
    }

    /// A witness value in the intersection, when both ranges are known.
    pub fn overlap_witness(&self, other: &Range) -> Option<Value> {
        match (self, other) {
            (Range::Known(a), Range::Known(b)) => a.intersection(b).next().cloned(),
            _ => None,
        }
    }
}

/// A strict partial order on the values of one attribute.
///
/// Implementations must guarantee irreflexivity and transitivity of
/// [`BasePreference::better`] (Def. 1); `pref_core::spo` machine-checks
/// this for every constructor in the test suite.
pub trait BasePreference: fmt::Debug + Send + Sync {
    /// Constructor name as the paper writes it, e.g. `"POS"`, `"AROUND"`.
    fn name(&self) -> &'static str;

    /// Strict better-than test: is `y` better than `x` (i.e. `x <P y`)?
    fn better(&self, x: &Value, y: &Value) -> bool;

    /// Discrete quality level, 1 = best (Def. 2 / Def. 6). `None` when the
    /// constructor uses a continuous quality notion instead.
    fn level(&self, _v: &Value) -> Option<u32> {
        None
    }

    /// Numerical score, higher = better. `Some` for the SCORE family
    /// (AROUND, BETWEEN, LOWEST, HIGHEST, SCORE), which makes the
    /// preference usable as a `rank(F)` operand (Def. 10, §3.4).
    fn score(&self, _v: &Value) -> Option<f64> {
        None
    }

    /// The DISTANCE quality function of Preference SQL (§6.1): distance 0
    /// is a perfect match. `Some` for AROUND and BETWEEN.
    fn distance(&self, _v: &Value) -> Option<f64> {
        None
    }

    /// Does this constructor belong to the SCORE family? Governs
    /// constructor substitutability into `rank(F)`.
    fn is_numerical(&self) -> bool {
        false
    }

    /// A total-preorder embedding of this order, when one exists:
    /// `Some(k)` for every domain value with the *exact* guarantee
    /// `better(x, y) ⟺ key(x) < key(y)` (higher key = better).
    ///
    /// This is stronger than [`BasePreference::score`] (which only needs
    /// `better ⟹ <`) and is what lets the score-matrix evaluator replace
    /// term-tree walks by plain `f64` comparisons. Constructors whose
    /// order is not a total preorder on some values (EXPLICIT's genuine
    /// partial orders, the combinator bases) return `None` — per value,
    /// so materialization can bail out and fall back to the generic
    /// path the moment a non-embeddable value shows up.
    fn dominance_key(&self, _v: &Value) -> Option<f64> {
        None
    }

    /// Is `v` in `max(P)` over the *whole domain* (a "dream value",
    /// Def. 14b)? `Some(false)` when certainly not (e.g. any value under
    /// HIGHEST on an unbounded domain), `None` when unknown. Drives
    /// perfect-match detection in BMO queries.
    fn is_top(&self, _v: &Value) -> Option<bool> {
        None
    }

    /// Downcast hook for the one base constructor with a materializable
    /// *partial* order: EXPLICIT graphs expose their vertex index and
    /// reachability bitset here, which lets the score-matrix evaluator
    /// resolve values to vertex ids once per relation instead of walking
    /// the term per comparison. Everything else stays `None`.
    fn as_explicit(&self) -> Option<&Explicit> {
        None
    }

    /// Is the order total on the attribute's domain (a chain, Def. 3a)?
    /// Used by the optimizer (Prop. 11 cascades apply only to chains).
    fn is_chain(&self) -> bool {
        false
    }

    /// `range(<P)` per Def. 4, as precisely as this constructor knows it.
    fn range(&self) -> Range {
        Range::Unbounded
    }

    /// Parameter part of the display form, e.g. `{'yellow'}; {'gray'}`.
    /// Empty for parameterless constructors such as LOWEST.
    fn params(&self) -> String {
        String::new()
    }
}

/// Shared handle to a base preference.
pub type BaseRef = Arc<dyn BasePreference>;

/// Equality of base preferences for the *syntactic* term equality used by
/// rewrite rules (`P ⊗ P ≡ P` needs to recognise "the same P"). Two base
/// preferences are considered identical when constructor name and printed
/// parameters coincide. Custom `SCORE` functions must therefore carry
/// distinct names if they differ.
pub fn base_eq(a: &BaseRef, b: &BaseRef) -> bool {
    Arc::ptr_eq(a, b) || (a.name() == b.name() && a.params() == b.params())
}

/// Render a set of values in paper notation: `{'green', 'yellow'}` with a
/// canonical (sorted) element order.
pub(crate) fn fmt_value_set(set: &HashSet<Value>) -> String {
    let mut items: Vec<&Value> = set.iter().collect();
    items.sort();
    let body: Vec<String> = items.iter().map(|v| v.to_string()).collect();
    format!("{{{}}}", body.join(", "))
}

/// Compare two values on the shared ordered axis used by the numerical
/// constructors: numbers (and dates, via day number) compare numerically;
/// equal-typed other values compare by their natural order; mixed
/// non-ordinal types are incomparable.
pub(crate) fn ordinal_cmp(x: &Value, y: &Value) -> Option<std::cmp::Ordering> {
    match (x.ordinal(), y.ordinal()) {
        (Some(a), Some(b)) => Some(a.total_cmp(&b)),
        (None, None) if !x.is_null() && !y.is_null() => {
            if std::mem::discriminant(x) == std::mem::discriminant(y) {
                Some(x.cmp(y))
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn range_disjointness() {
        let a = Range::Known([Value::from(1)].into_iter().collect());
        let b = Range::Known([Value::from(2)].into_iter().collect());
        let c = Range::Known([Value::from(1), Value::from(3)].into_iter().collect());
        assert_eq!(a.disjoint_with(&b), Some(true));
        assert_eq!(a.disjoint_with(&c), Some(false));
        assert_eq!(a.overlap_witness(&c), Some(Value::from(1)));
        assert_eq!(a.disjoint_with(&Range::Unbounded), None);
    }

    #[test]
    fn fmt_value_set_is_canonical() {
        let s: HashSet<Value> = [Value::from("b"), Value::from("a")].into_iter().collect();
        assert_eq!(fmt_value_set(&s), "{'a', 'b'}");
    }

    #[test]
    fn ordinal_cmp_covers_mixed_numerics() {
        assert_eq!(
            ordinal_cmp(&Value::from(1), &Value::from(1.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            ordinal_cmp(&Value::from("a"), &Value::from("b")),
            Some(Ordering::Less)
        );
        assert_eq!(ordinal_cmp(&Value::from("a"), &Value::from(1)), None);
        assert_eq!(ordinal_cmp(&Value::Null, &Value::from(1)), None);
    }

    #[test]
    fn base_eq_by_name_and_params() {
        let p1: BaseRef = Arc::new(Pos::new(["yellow"]));
        let p2: BaseRef = Arc::new(Pos::new(["yellow"]));
        let p3: BaseRef = Arc::new(Pos::new(["green"]));
        assert!(base_eq(&p1, &p2));
        assert!(!base_eq(&p1, &p3));
    }
}
