//! NEG preference (Def. 6b): a desired value should not be one of a set of
//! dislikes; if unavoidable, a disliked value still beats getting nothing.

use std::collections::HashSet;

use pref_relation::Value;

use super::{fmt_value_set, BasePreference, Range};

/// `NEG(A, NEG-set)`: `x <P y  iff  y ∉ NEG-set ∧ x ∈ NEG-set`.
///
/// All non-NEG values are maximal (level 1); NEG values are at level 2.
#[derive(Debug, Clone)]
pub struct Neg {
    neg: HashSet<Value>,
}

impl Neg {
    /// Build from any collection of disliked values.
    pub fn new<I, V>(neg: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Neg {
            neg: neg.into_iter().map(Into::into).collect(),
        }
    }

    /// The NEG-set.
    pub fn neg_set(&self) -> &HashSet<Value> {
        &self.neg
    }
}

impl BasePreference for Neg {
    fn name(&self) -> &'static str {
        "NEG"
    }

    fn better(&self, x: &Value, y: &Value) -> bool {
        !self.neg.contains(y) && self.neg.contains(x)
    }

    fn level(&self, v: &Value) -> Option<u32> {
        Some(if self.neg.contains(v) { 2 } else { 1 })
    }

    // Level-based orders embed as negated levels (level 1 = best).
    fn dominance_key(&self, v: &Value) -> Option<f64> {
        self.level(v).map(|l| -f64::from(l))
    }

    fn is_top(&self, v: &Value) -> Option<bool> {
        Some(!self.neg.contains(v))
    }

    fn range(&self) -> Range {
        if self.neg.is_empty() {
            Range::Known(HashSet::new())
        } else {
            Range::Unbounded
        }
    }

    fn params(&self) -> String {
        fmt_value_set(&self.neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spo::check_spo_values;

    fn v(s: &str) -> Value {
        Value::from(s)
    }

    #[test]
    fn gray_is_disliked() {
        // P5 := NEG(Color, {gray})   (Example 6)
        let p = Neg::new(["gray"]);
        assert!(p.better(&v("gray"), &v("red")));
        assert!(!p.better(&v("red"), &v("gray")));
        assert!(!p.better(&v("red"), &v("blue")));
        assert!(!p.better(&v("gray"), &v("gray")));
    }

    #[test]
    fn levels() {
        let p = Neg::new(["gray", "brown"]);
        assert_eq!(p.level(&v("gray")), Some(2));
        assert_eq!(p.level(&v("red")), Some(1));
    }

    #[test]
    fn is_strict_partial_order() {
        let p = Neg::new(["x", "y"]);
        let dom: Vec<Value> = ["x", "y", "z", "w"].iter().map(|s| v(s)).collect();
        check_spo_values(&p, &dom).unwrap();
    }
}
