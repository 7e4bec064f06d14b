//! POS/NEG preference (Def. 6c): favorites first, dislikes last,
//! everything else in between.

use std::collections::HashSet;

use pref_relation::Value;

use super::{fmt_value_set, BasePreference, Range};
use crate::error::CoreError;

/// `POS/NEG(A, POS-set; NEG-set)`:
///
/// ```text
/// x <P y  iff  (x ∈ NEG ∧ y ∉ NEG) ∨ (x ∉ NEG ∧ x ∉ POS ∧ y ∈ POS)
/// ```
///
/// POS values are maximal (level 1), NEG values at level 3, all others at
/// level 2. The sets must be disjoint.
#[derive(Debug, Clone)]
pub struct PosNeg {
    pos: HashSet<Value>,
    neg: HashSet<Value>,
}

impl PosNeg {
    /// Build from favorite and disliked values; rejects overlapping sets.
    pub fn new<I, J, V, W>(pos: I, neg: J) -> Result<Self, CoreError>
    where
        I: IntoIterator<Item = V>,
        J: IntoIterator<Item = W>,
        V: Into<Value>,
        W: Into<Value>,
    {
        let pos: HashSet<Value> = pos.into_iter().map(Into::into).collect();
        let neg: HashSet<Value> = neg.into_iter().map(Into::into).collect();
        if let Some(witness) = pos.intersection(&neg).next() {
            return Err(CoreError::OverlappingSets {
                constructor: "POS/NEG",
                witness: witness.clone(),
            });
        }
        Ok(PosNeg { pos, neg })
    }

    /// The POS-set.
    pub fn pos_set(&self) -> &HashSet<Value> {
        &self.pos
    }

    /// The NEG-set.
    pub fn neg_set(&self) -> &HashSet<Value> {
        &self.neg
    }
}

impl BasePreference for PosNeg {
    fn name(&self) -> &'static str {
        "POS/NEG"
    }

    fn better(&self, x: &Value, y: &Value) -> bool {
        (self.neg.contains(x) && !self.neg.contains(y))
            || (!self.neg.contains(x) && !self.pos.contains(x) && self.pos.contains(y))
    }

    fn level(&self, v: &Value) -> Option<u32> {
        Some(if self.pos.contains(v) {
            1
        } else if self.neg.contains(v) {
            3
        } else {
            2
        })
    }

    // Level-based orders embed as negated levels (level 1 = best).
    fn dominance_key(&self, v: &Value) -> Option<f64> {
        self.level(v).map(|l| -f64::from(l))
    }

    fn is_top(&self, v: &Value) -> Option<bool> {
        Some(if self.pos.is_empty() {
            !self.neg.contains(v)
        } else {
            self.pos.contains(v)
        })
    }

    fn range(&self) -> Range {
        if self.pos.is_empty() && self.neg.is_empty() {
            Range::Known(HashSet::new())
        } else {
            Range::Unbounded
        }
    }

    fn params(&self) -> String {
        format!("{}; {}", fmt_value_set(&self.pos), fmt_value_set(&self.neg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spo::check_spo_values;

    fn v(s: &str) -> Value {
        Value::from(s)
    }

    fn paper_example() -> PosNeg {
        // P := POS/NEG(Color, POS-set{yellow}; NEG-set{gray})   (Example 1)
        PosNeg::new(["yellow"], ["gray"]).unwrap()
    }

    #[test]
    fn three_tier_order() {
        let p = paper_example();
        // gray < anything not gray
        assert!(p.better(&v("gray"), &v("red")));
        assert!(p.better(&v("gray"), &v("yellow")));
        // middle < yellow
        assert!(p.better(&v("red"), &v("yellow")));
        // not the other way around
        assert!(!p.better(&v("yellow"), &v("red")));
        assert!(!p.better(&v("red"), &v("gray")));
        // two middles are unranked
        assert!(!p.better(&v("red"), &v("blue")));
        assert!(!p.better(&v("blue"), &v("red")));
    }

    #[test]
    fn levels_match_def6c() {
        let p = paper_example();
        assert_eq!(p.level(&v("yellow")), Some(1));
        assert_eq!(p.level(&v("red")), Some(2));
        assert_eq!(p.level(&v("gray")), Some(3));
    }

    #[test]
    fn rejects_overlap() {
        let err = PosNeg::new(["red"], ["red", "gray"]).unwrap_err();
        assert!(matches!(err, CoreError::OverlappingSets { .. }));
    }

    #[test]
    fn is_strict_partial_order() {
        let p = PosNeg::new(["a", "b"], ["x"]).unwrap();
        let dom: Vec<Value> = ["a", "b", "c", "d", "x"].iter().map(|s| v(s)).collect();
        check_spo_values(&p, &dom).unwrap();
    }

    #[test]
    fn leslie_preference_example6() {
        // P8 := POS/NEG(Color, POS{blue}; NEG{gray, red})
        let p = PosNeg::new(["blue"], ["gray", "red"]).unwrap();
        assert!(p.better(&v("red"), &v("black")));
        assert!(p.better(&v("black"), &v("blue")));
        assert!(p.better(&v("gray"), &v("blue")));
        assert!(!p.better(&v("blue"), &v("blue")));
    }
}
