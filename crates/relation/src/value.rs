//! Runtime values stored in relations and compared by preferences.
//!
//! [`Value`] is a small tagged union over the SQL-ish types the paper's
//! examples use: integers, floats, strings, booleans and dates. Floats use
//! [`f64::total_cmp`] so every `Value` has a total order and can be hashed
//! (grouping, distinct), which the BMO machinery relies on.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A calendar date stored as days since 1970-01-01 (proleptic Gregorian).
///
/// The paper applies `AROUND` to SQL `Date` ("also applicable to other
/// ordered SQL types like Date"); a day count gives dates both the total
/// order and the subtraction operator the numerical base preferences need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    days: i32,
}

impl Date {
    /// Construct from days since the Unix epoch.
    pub const fn from_days(days: i32) -> Self {
        Date { days }
    }

    /// Days since the Unix epoch.
    pub const fn days(self) -> i32 {
        self.days
    }

    /// Construct from a calendar date. Returns `None` for invalid dates.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Option<Self> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return None;
        }
        // Days from civil algorithm (Howard Hinnant's date algorithms).
        let y = if month <= 2 { year - 1 } else { year };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = (y - era * 400) as i64; // [0, 399]
        let m = month as i64;
        let d = day as i64;
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        let days = era as i64 * 146_097 + doe - 719_468;
        Some(Date { days: days as i32 })
    }

    /// Decompose into `(year, month, day)`.
    pub fn ymd(self) -> (i32, u32, u32) {
        let z = self.days as i64 + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
        let year = if m <= 2 { y + 1 } else { y } as i32;
        (year, m, d)
    }

    /// Parse `YYYY/MM/DD` or `YYYY-MM-DD` (the paper writes `'2001/11/23'`).
    pub fn parse(s: &str) -> Option<Self> {
        let sep = if s.contains('/') { '/' } else { '-' };
        let mut parts = s.split(sep);
        let year: i32 = parts.next()?.trim().parse().ok()?;
        let month: u32 = parts.next()?.trim().parse().ok()?;
        let day: u32 = parts.next()?.trim().parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Date::from_ymd(year, month, day)
    }
}

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}/{m:02}/{d:02}")
    }
}

/// A dynamically typed value.
///
/// `Value` implements a *total* order (`Ord`): values of the same type
/// compare naturally (floats by `total_cmp`), values of different types
/// compare by a fixed type rank. The cross-type ordering exists only so
/// relations can be sorted/deduplicated deterministically; preference
/// semantics never compare across types.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL / missing value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float, totally ordered via `total_cmp`.
    Float(f64),
    /// Interned-ish string (cheap clones).
    Str(Arc<str>),
    /// Calendar date.
    Date(Date),
}

impl Value {
    /// Rank used to order values of different types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Date(_) => 5,
        }
    }

    /// Is this the SQL NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: `Int` and `Float` (and `Bool` as 0/1) as `f64`.
    ///
    /// `Date` is deliberately *not* numeric here; use [`Value::ordinal`]
    /// when you need the "ordered SQL type" view that AROUND/BETWEEN use.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// The value on an ordered numeric axis: numbers as themselves, dates as
    /// their day number. This is the `dom(A)` with `<` and `−` that the
    /// paper's numerical base preference constructors (Def. 7) require.
    pub fn ordinal(&self) -> Option<f64> {
        match self {
            Value::Date(d) => Some(d.days() as f64),
            other => other.as_f64(),
        }
    }

    /// Integer view without coercion.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view without coercion.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Date view without coercion.
    pub fn as_date(&self) -> Option<Date> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Absolute distance `abs(self − other)` on the ordinal axis
    /// (Def. 7a). `None` if either value has no ordinal view.
    pub fn distance(&self, other: &Value) -> Option<f64> {
        Some((self.ordinal()? - other.ordinal()?).abs())
    }

    /// Constant-size equality fingerprint: a `u64` with `fp(v) == fp(w)`
    /// **iff** `v == w` — no hashing, no collisions. Available exactly
    /// when the value has a lossless ordinal image: floats (by
    /// total-order bit pattern, so `0.0 ≠ -0.0` and NaN payloads differ,
    /// as in `Value`'s order), dates, booleans, and integers within the
    /// f64-exact range `|i| ≤ 2⁵³`. `None` otherwise (strings, NULL,
    /// huge ints) — callers fall back to a
    /// [`Dictionary`](crate::column::Dictionary). A schema-typed column
    /// holds one variant (plus NULLs, which have no fingerprint), so
    /// cross-variant bit collisions cannot occur within a column.
    ///
    /// A pure per-value function, so a score-matrix lane of these codes
    /// is filled, and extended by appended rows, one row at a time.
    pub fn fingerprint(&self) -> Option<u64> {
        const EXACT: i64 = 1 << 53;
        match self {
            Value::Int(i) if (-EXACT..=EXACT).contains(i) => Some((*i as f64).to_bits()),
            Value::Float(f) => Some(f.to_bits()),
            Value::Date(d) => Some((d.days() as f64).to_bits()),
            Value::Bool(b) => Some(*b as u64),
            _ => None,
        }
    }

    /// Comparison that treats `Int` and `Float` as one numeric axis
    /// (`2 == 2.0`), used by hard-constraint predicates. Values of
    /// incomparable types return `None`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Float(b)) => Some((*a as f64).total_cmp(b)),
            (Value::Float(a), Value::Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (a, b) if a.type_rank() == b.type_rank() => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(x) => x.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Date(d) => d.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            // Escape embedded quotes SQL-style so the textual form can
            // be parsed back.
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn date_roundtrip_ymd() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (2001, 11, 23),
            (2000, 2, 29),
            (1999, 12, 31),
            (1900, 3, 1),
            (2400, 2, 29),
        ] {
            let date = Date::from_ymd(y, m, d).unwrap();
            assert_eq!(date.ymd(), (y, m, d), "roundtrip {y}-{m}-{d}");
        }
    }

    #[test]
    fn date_epoch_is_day_zero() {
        assert_eq!(Date::from_ymd(1970, 1, 1).unwrap().days(), 0);
        assert_eq!(Date::from_ymd(1970, 1, 2).unwrap().days(), 1);
        assert_eq!(Date::from_ymd(1969, 12, 31).unwrap().days(), -1);
    }

    #[test]
    fn date_rejects_invalid() {
        assert!(Date::from_ymd(2001, 2, 29).is_none());
        assert!(Date::from_ymd(2001, 13, 1).is_none());
        assert!(Date::from_ymd(2001, 0, 1).is_none());
        assert!(Date::from_ymd(2001, 4, 31).is_none());
    }

    #[test]
    fn date_parses_both_separators() {
        let a = Date::parse("2001/11/23").unwrap();
        let b = Date::parse("2001-11-23").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "2001/11/23");
        assert!(Date::parse("2001/11").is_none());
        assert!(Date::parse("not a date").is_none());
    }

    #[test]
    fn date_subtraction_via_ordinal() {
        let a = Value::from(Date::parse("2001/11/23").unwrap());
        let b = Value::from(Date::parse("2001/11/25").unwrap());
        assert_eq!(a.distance(&b), Some(2.0));
    }

    #[test]
    fn value_equality_across_constructors() {
        assert_eq!(Value::from("red"), Value::from(String::from("red")));
        assert_eq!(Value::from(3i64), Value::from(3i32));
        assert_ne!(Value::from(3i64), Value::from(3.0));
    }

    #[test]
    fn float_total_order_handles_nan_and_zero() {
        let nan = Value::from(f64::NAN);
        let one = Value::from(1.0);
        // NaN is comparable (total order), and equal to itself.
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(nan.cmp(&one), Ordering::Greater);
        // -0.0 < +0.0 under total_cmp; they are distinct hash keys.
        assert_eq!(Value::from(-0.0).cmp(&Value::from(0.0)), Ordering::Less);
    }

    #[test]
    fn hash_consistent_with_eq() {
        let a = Value::from(42i64);
        let b = Value::from(42i64);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        let s1 = Value::from("abc");
        let s2 = Value::from("abc");
        assert_eq!(hash_of(&s1), hash_of(&s2));
    }

    #[test]
    fn sql_cmp_coerces_numeric() {
        assert_eq!(
            Value::from(2i64).sql_cmp(&Value::from(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::from(2i64).sql_cmp(&Value::from(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::from(2i64).sql_cmp(&Value::from("two")), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn cross_type_ordering_is_total_and_antisymmetric() {
        let vals = vec![
            Value::Null,
            Value::from(true),
            Value::from(1i64),
            Value::from(1.5),
            Value::from("x"),
            Value::from(Date::from_days(10)),
        ];
        for a in &vals {
            for b in &vals {
                let ab = a.cmp(b);
                let ba = b.cmp(a);
                assert_eq!(ab, ba.reverse());
            }
        }
    }

    #[test]
    fn ordinal_covers_dates_and_numbers() {
        assert_eq!(Value::from(3i64).ordinal(), Some(3.0));
        assert_eq!(Value::from(2.5).ordinal(), Some(2.5));
        assert_eq!(Value::from(Date::from_days(7)).ordinal(), Some(7.0));
        assert_eq!(Value::from("x").ordinal(), None);
        assert_eq!(Value::Null.ordinal(), None);
    }

    #[test]
    fn display_matches_paper_style() {
        assert_eq!(Value::from("yellow").to_string(), "'yellow'");
        assert_eq!(Value::from(40_000i64).to_string(), "40000");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
