//! BETWEEN preference (Def. 7b): prefer values inside an interval, else
//! values closest to its boundaries.

use pref_relation::Value;

use super::{BasePreference, Range};
use crate::error::CoreError;

/// `BETWEEN(A, [low, up])`:
///
/// ```text
/// distance(v, [low, up]) = 0            if v ∈ [low, up]
///                        = low − v      if v < low
///                        = v − up       if v > up
/// x <P y  iff  distance(x) > distance(y)
/// ```
#[derive(Debug, Clone)]
pub struct Between {
    low: Value,
    up: Value,
    low_ord: f64,
    up_ord: f64,
}

impl Between {
    /// Build with interval bounds; requires `low <= up` on the ordered axis.
    pub fn new(low: impl Into<Value>, up: impl Into<Value>) -> Result<Self, CoreError> {
        let low = low.into();
        let up = up.into();
        let (low_ord, up_ord) = match (low.ordinal(), up.ordinal()) {
            (Some(a), Some(b)) if a <= b => (a, b),
            _ => {
                return Err(CoreError::EmptyInterval { low, up });
            }
        };
        Ok(Between {
            low,
            up,
            low_ord,
            up_ord,
        })
    }

    /// The interval bounds.
    pub fn bounds(&self) -> (&Value, &Value) {
        (&self.low, &self.up)
    }

    fn dist(&self, v: &Value) -> f64 {
        match v.ordinal() {
            Some(o) if o < self.low_ord => self.low_ord - o,
            Some(o) if o > self.up_ord => o - self.up_ord,
            Some(_) => 0.0,
            None => f64::INFINITY,
        }
    }
}

impl BasePreference for Between {
    fn name(&self) -> &'static str {
        "BETWEEN"
    }

    fn better(&self, x: &Value, y: &Value) -> bool {
        self.dist(x) > self.dist(y)
    }

    fn score(&self, v: &Value) -> Option<f64> {
        Some(-self.dist(v))
    }

    // As for AROUND: `better` is exactly "smaller (total) distance".
    fn dominance_key(&self, v: &Value) -> Option<f64> {
        Some(-self.dist(v))
    }

    fn distance(&self, v: &Value) -> Option<f64> {
        Some(self.dist(v))
    }

    fn is_numerical(&self) -> bool {
        true
    }

    fn is_top(&self, v: &Value) -> Option<bool> {
        Some(self.dist(v) == 0.0)
    }

    fn range(&self) -> Range {
        Range::Unbounded
    }

    fn params(&self) -> String {
        format!("[{}, {}]", self.low, self.up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spo::check_spo_values;

    #[test]
    fn inside_beats_outside() {
        let p = Between::new(10, 20).unwrap();
        assert!(p.better(&Value::from(25), &Value::from(15)));
        assert!(p.better(&Value::from(5), &Value::from(10)));
        assert!(!p.better(&Value::from(15), &Value::from(25)));
    }

    #[test]
    fn all_inside_values_are_unranked() {
        let p = Between::new(10, 20).unwrap();
        assert!(!p.better(&Value::from(10), &Value::from(20)));
        assert!(!p.better(&Value::from(20), &Value::from(10)));
        assert_eq!(p.distance(&Value::from(12)), Some(0.0));
    }

    #[test]
    fn boundary_distance() {
        let p = Between::new(10, 20).unwrap();
        assert_eq!(p.distance(&Value::from(7)), Some(3.0));
        assert_eq!(p.distance(&Value::from(22)), Some(2.0));
        // 7 (dist 3) is worse than 22 (dist 2)
        assert!(p.better(&Value::from(7), &Value::from(22)));
        // equal distance on both sides: unranked
        assert!(!p.better(&Value::from(8), &Value::from(22)));
        assert!(!p.better(&Value::from(22), &Value::from(8)));
    }

    #[test]
    fn degenerate_interval_is_around() {
        // AROUND ≼ BETWEEN if low = up  (§3.4)
        let b = Between::new(5, 5).unwrap();
        let a = super::super::Around::new(5);
        for x in -10..=10 {
            for y in -10..=10 {
                assert_eq!(
                    b.better(&Value::from(x), &Value::from(y)),
                    a.better(&Value::from(x), &Value::from(y)),
                    "x={x}, y={y}"
                );
            }
        }
    }

    #[test]
    fn rejects_inverted_interval() {
        assert!(matches!(
            Between::new(20, 10),
            Err(CoreError::EmptyInterval { .. })
        ));
        assert!(Between::new("a", "b").is_err());
    }

    #[test]
    fn is_strict_partial_order() {
        let p = Between::new(0, 10).unwrap();
        let dom: Vec<Value> = vec![
            Value::from(-5),
            Value::from(0),
            Value::from(5),
            Value::from(10),
            Value::from(15),
            Value::from("off"),
        ];
        check_spo_values(&p, &dom).unwrap();
    }
}
