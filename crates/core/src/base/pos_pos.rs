//! POS/POS preference (Def. 6d): favorites, then second-best alternatives,
//! then everything else.

use std::collections::HashSet;

use pref_relation::Value;

use super::{fmt_value_set, BasePreference, Range};
use crate::error::CoreError;

/// `POS/POS(A, POS1-set; POS2-set)`:
///
/// ```text
/// x <P y  iff  (x ∈ POS2 ∧ y ∈ POS1)
///           ∨  (x ∉ POS1 ∧ x ∉ POS2 ∧ y ∈ POS2)
///           ∨  (x ∉ POS1 ∧ x ∉ POS2 ∧ y ∈ POS1)
/// ```
///
/// POS1 values are maximal (level 1), POS2 at level 2, all others level 3.
/// The sets must be disjoint.
#[derive(Debug, Clone)]
pub struct PosPos {
    pos1: HashSet<Value>,
    pos2: HashSet<Value>,
}

impl PosPos {
    /// Build from favorites and second-best alternatives; sets must be
    /// disjoint.
    pub fn new<I, J, V, W>(pos1: I, pos2: J) -> Result<Self, CoreError>
    where
        I: IntoIterator<Item = V>,
        J: IntoIterator<Item = W>,
        V: Into<Value>,
        W: Into<Value>,
    {
        let pos1: HashSet<Value> = pos1.into_iter().map(Into::into).collect();
        let pos2: HashSet<Value> = pos2.into_iter().map(Into::into).collect();
        if let Some(witness) = pos1.intersection(&pos2).next() {
            return Err(CoreError::OverlappingSets {
                constructor: "POS/POS",
                witness: witness.clone(),
            });
        }
        Ok(PosPos { pos1, pos2 })
    }

    /// The favorite values.
    pub fn pos1_set(&self) -> &HashSet<Value> {
        &self.pos1
    }

    /// The second-best alternatives.
    pub fn pos2_set(&self) -> &HashSet<Value> {
        &self.pos2
    }
}

impl BasePreference for PosPos {
    fn name(&self) -> &'static str {
        "POS/POS"
    }

    fn better(&self, x: &Value, y: &Value) -> bool {
        let x1 = self.pos1.contains(x);
        let x2 = self.pos2.contains(x);
        let y1 = self.pos1.contains(y);
        let y2 = self.pos2.contains(y);
        let x_other = !x1 && !x2;
        (x2 && y1) || (x_other && (y1 || y2))
    }

    fn level(&self, v: &Value) -> Option<u32> {
        Some(if self.pos1.contains(v) {
            1
        } else if self.pos2.contains(v) {
            2
        } else {
            3
        })
    }

    // Level-based orders embed as negated levels (level 1 = best).
    fn dominance_key(&self, v: &Value) -> Option<f64> {
        self.level(v).map(|l| -f64::from(l))
    }

    fn is_top(&self, v: &Value) -> Option<bool> {
        Some(if !self.pos1.is_empty() {
            self.pos1.contains(v)
        } else if !self.pos2.is_empty() {
            self.pos2.contains(v)
        } else {
            true
        })
    }

    fn range(&self) -> Range {
        if self.pos1.is_empty() && self.pos2.is_empty() {
            Range::Known(HashSet::new())
        } else {
            Range::Unbounded
        }
    }

    fn params(&self) -> String {
        format!(
            "{}; {}",
            fmt_value_set(&self.pos1),
            fmt_value_set(&self.pos2)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spo::check_spo_values;

    fn v(s: &str) -> Value {
        Value::from(s)
    }

    fn paper_example() -> PosPos {
        // P := POS/POS(Category, POS1{cabriolet}; POS2{roadster})  (Example 1)
        PosPos::new(["cabriolet"], ["roadster"]).unwrap()
    }

    #[test]
    fn three_tier_order() {
        let p = paper_example();
        assert!(p.better(&v("roadster"), &v("cabriolet")));
        assert!(p.better(&v("sedan"), &v("roadster")));
        assert!(p.better(&v("sedan"), &v("cabriolet")));
        assert!(!p.better(&v("cabriolet"), &v("roadster")));
        assert!(!p.better(&v("roadster"), &v("sedan")));
        assert!(!p.better(&v("sedan"), &v("van")));
    }

    #[test]
    fn levels_match_def6d() {
        let p = paper_example();
        assert_eq!(p.level(&v("cabriolet")), Some(1));
        assert_eq!(p.level(&v("roadster")), Some(2));
        assert_eq!(p.level(&v("sedan")), Some(3));
    }

    #[test]
    fn rejects_overlap() {
        assert!(matches!(
            PosPos::new(["a"], ["a", "b"]),
            Err(CoreError::OverlappingSets { .. })
        ));
    }

    #[test]
    fn is_strict_partial_order() {
        let p = paper_example();
        let dom: Vec<Value> = ["cabriolet", "roadster", "sedan", "van"]
            .iter()
            .map(|s| v(s))
            .collect();
        check_spo_values(&p, &dom).unwrap();
    }

    #[test]
    fn transitive_across_tiers() {
        // sedan < roadster and roadster < cabriolet imply sedan < cabriolet
        let p = paper_example();
        assert!(p.better(&v("sedan"), &v("roadster")));
        assert!(p.better(&v("roadster"), &v("cabriolet")));
        assert!(p.better(&v("sedan"), &v("cabriolet")));
    }
}
