//! POS preference (Def. 6a): a desired value should be one from a set of
//! favorites; any other value is acceptable but worse.

use std::collections::HashSet;

use pref_relation::Value;

use super::{fmt_value_set, BasePreference, Range};

/// `POS(A, POS-set)`: `x <P y  iff  x ∉ POS-set ∧ y ∈ POS-set`.
///
/// All POS values are maximal (level 1); all other values are at level 2.
#[derive(Debug, Clone)]
pub struct Pos {
    pos: HashSet<Value>,
}

impl Pos {
    /// Build from any collection of favorite values.
    pub fn new<I, V>(pos: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Pos {
            pos: pos.into_iter().map(Into::into).collect(),
        }
    }

    /// The POS-set.
    pub fn pos_set(&self) -> &HashSet<Value> {
        &self.pos
    }
}

impl BasePreference for Pos {
    fn name(&self) -> &'static str {
        "POS"
    }

    fn better(&self, x: &Value, y: &Value) -> bool {
        !self.pos.contains(x) && self.pos.contains(y)
    }

    fn level(&self, v: &Value) -> Option<u32> {
        Some(if self.pos.contains(v) { 1 } else { 2 })
    }

    // Level-based orders embed as negated levels (level 1 = best).
    fn dominance_key(&self, v: &Value) -> Option<f64> {
        self.level(v).map(|l| -f64::from(l))
    }

    fn is_top(&self, v: &Value) -> Option<bool> {
        Some(self.pos.is_empty() || self.pos.contains(v))
    }

    fn range(&self) -> Range {
        // Every non-POS value is ranked against every POS value, so the
        // range is the whole domain — unless POS is empty, in which case
        // the order is empty.
        if self.pos.is_empty() {
            Range::Known(HashSet::new())
        } else {
            Range::Unbounded
        }
    }

    fn params(&self) -> String {
        fmt_value_set(&self.pos)
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
    fn example1_transmission() {
        // P := POS(Transmission, {automatic})   (Example 1)
        let p = Pos::new(["automatic"]);
        assert!(p.better(&v("manual"), &v("automatic")));
        assert!(!p.better(&v("automatic"), &v("manual")));
        assert!(!p.better(&v("manual"), &v("semi")));
        assert!(!p.better(&v("automatic"), &v("automatic")));
    }

    #[test]
    fn levels() {
        let p = Pos::new(["a", "b"]);
        assert_eq!(p.level(&v("a")), Some(1));
        assert_eq!(p.level(&v("z")), Some(2));
    }

    #[test]
    fn is_strict_partial_order() {
        let p = Pos::new(["a", "b"]);
        let dom: Vec<Value> = ["a", "b", "c", "d"].iter().map(|s| v(s)).collect();
        check_spo_values(&p, &dom).unwrap();
    }

    #[test]
    fn empty_pos_set_is_antichain() {
        let p = Pos::new(Vec::<&str>::new());
        assert!(!p.better(&v("a"), &v("b")));
        assert_eq!(p.range(), Range::Known(HashSet::new()));
    }

    #[test]
    fn display_params() {
        let p = Pos::new(["yellow"]);
        assert_eq!(p.params(), "{'yellow'}");
        assert_eq!(p.name(), "POS");
    }
}
