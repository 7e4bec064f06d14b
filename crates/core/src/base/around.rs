//! AROUND preference (Def. 7a): prefer values closest to a target.

use pref_relation::Value;

use super::{BasePreference, Range};

/// `AROUND(A, z)`: `x <P y  iff  distance(x, z) > distance(y, z)` with
/// `distance(v, z) = abs(v − z)`.
///
/// Values at equal distance from `z` (e.g. `z−5` and `z+5`) are unranked.
/// Applies to any ordered axis type — numbers and dates.
#[derive(Debug, Clone)]
pub struct Around {
    z: Value,
    z_ord: f64,
}

impl Around {
    /// Build with target value `z`. `z` must live on the ordered axis
    /// (Int, Float or Date); this is a constructor precondition and panics
    /// otherwise, as there is no meaningful recovery.
    pub fn new(z: impl Into<Value>) -> Self {
        let z = z.into();
        let z_ord = z
            .ordinal()
            .expect("AROUND requires a numeric or date target value");
        Around { z, z_ord }
    }

    /// The target value.
    pub fn target(&self) -> &Value {
        &self.z
    }

    /// `distance(v, z)`; +∞ for values off the ordered axis, so that any
    /// on-axis value beats them (they can never be "closest").
    fn dist(&self, v: &Value) -> f64 {
        match v.ordinal() {
            Some(o) => (o - self.z_ord).abs(),
            None => f64::INFINITY,
        }
    }
}

impl BasePreference for Around {
    fn name(&self) -> &'static str {
        "AROUND"
    }

    fn better(&self, x: &Value, y: &Value) -> bool {
        self.dist(x) > self.dist(y)
    }

    fn score(&self, v: &Value) -> Option<f64> {
        Some(-self.dist(v))
    }

    // `better` is exactly "smaller distance", and `dist` is total (off-axis
    // values map to +∞ and tie among themselves), so the score doubles as
    // a dominance key.
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
        self.z.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spo::check_spo_values;
    use pref_relation::Date;

    #[test]
    fn closer_is_better() {
        // P3 := AROUND(Horsepower, 100)   (Example 6)
        let p = Around::new(100);
        assert!(p.better(&Value::from(140), &Value::from(110)));
        assert!(p.better(&Value::from(50), &Value::from(95)));
        assert!(!p.better(&Value::from(100), &Value::from(110)));
    }

    #[test]
    fn equal_distance_is_unranked() {
        // "if distance(x, z) = distance(y, z) and x ≠ y, then x and y are
        //  unranked" (Def. 7a)
        let p = Around::new(0);
        assert!(!p.better(&Value::from(-5), &Value::from(5)));
        assert!(!p.better(&Value::from(5), &Value::from(-5)));
    }

    #[test]
    fn works_on_dates() {
        // "AROUND preferences ... also applicable to other ordered SQL
        //  types like Date"
        let p = Around::new(Date::parse("2001/11/23").unwrap());
        let near = Value::from(Date::parse("2001/11/24").unwrap());
        let far = Value::from(Date::parse("2001/12/24").unwrap());
        assert!(p.better(&far, &near));
        assert_eq!(p.distance(&near), Some(1.0));
    }

    #[test]
    fn mixes_ints_and_floats() {
        let p = Around::new(10.0);
        assert!(p.better(&Value::from(20), &Value::from(10.5)));
    }

    #[test]
    fn off_axis_values_lose() {
        let p = Around::new(0);
        assert!(p.better(&Value::from("zero"), &Value::from(1_000_000)));
        assert!(!p.better(&Value::from(0), &Value::from("zero")));
        // two off-axis values are unranked
        assert!(!p.better(&Value::from("a"), &Value::from("b")));
    }

    #[test]
    fn score_is_negated_distance() {
        let p = Around::new(100);
        assert_eq!(p.score(&Value::from(90)), Some(-10.0));
        assert_eq!(p.score(&Value::from(100)), Some(0.0));
        assert!(p.is_numerical());
    }

    #[test]
    fn is_strict_partial_order() {
        let p = Around::new(0);
        let dom: Vec<Value> = vec![
            Value::from(-6),
            Value::from(-5),
            Value::from(0),
            Value::from(5),
            Value::from(6),
            Value::from("off-axis"),
            Value::Null,
        ];
        check_spo_values(&p, &dom).unwrap();
    }
}
