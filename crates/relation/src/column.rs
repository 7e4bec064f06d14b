//! Typed columnar views over [`Relation`]s.
//!
//! The row API (`Relation::rows`, `Tuple`) is the storage format; query
//! code that evaluates one attribute across *all* rows — score
//! materialization, dictionary encoding for grouping, skyline vector
//! construction — wants column-at-a-time access instead. A [`Column`] is
//! a zero-copy view of one attribute; its methods materialize typed
//! vectors in a single pass so the O(n²)-ish dominance loops downstream
//! never touch a [`Value`] again.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;

/// An FxHash-style multiplicative hasher. Dictionary encoding hashes
/// every row of a column; SipHash's DoS resistance buys nothing against
/// an in-memory relation and costs ~3× the throughput.
#[derive(Default)]
pub struct FastHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }

    fn write_u8(&mut self, b: u8) {
        self.write_u64(b as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A borrowed view of one column of a relation.
#[derive(Debug, Clone, Copy)]
pub struct Column<'a> {
    rel: &'a Relation,
    col: usize,
}

impl<'a> Column<'a> {
    pub(crate) fn new(rel: &'a Relation, col: usize) -> Self {
        Column { rel, col }
    }

    /// The column index within the schema.
    pub fn index(&self) -> usize {
        self.col
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    /// Is the backing relation empty?
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    /// Iterate over the column's values, top to bottom. Row-id views
    /// read through their index vector into the shared storage, so a
    /// derived relation's columns are the base's tuples, not copies.
    pub fn iter(&self) -> impl Iterator<Item = &'a Value> + '_ {
        self.rel.iter().map(move |t| &t[self.col])
    }

    /// Dictionary-encode the column: per-row ids with `id[i] == id[j]`
    /// iff the values are equal. Ids are dense, assigned in first-seen
    /// order; the second component is the dictionary size.
    pub fn dictionary(&self) -> (Vec<u32>, usize) {
        let mut dict = Dictionary::default();
        let ids = self.iter().map(|v| dict.id(v)).collect();
        (ids, dict.len())
    }
}

/// First-seen equality ids over values, assigned one value at a time:
/// `id(v) == id(w)` iff `v == w`, ids dense from 0 in the order values
/// are first seen. [`Column::dictionary`] runs it over one column; a
/// caller that reads row by row keeps one per column and feeds it only
/// the values it needs ids for.
#[derive(Default)]
pub struct Dictionary<'a> {
    ids: FastMap<&'a Value, u32>,
}

impl<'a> Dictionary<'a> {
    /// The id of `v`: its existing one, or the next free one.
    pub fn id(&mut self, v: &'a Value) -> u32 {
        let next = self.ids.len() as u32;
        *self.ids.entry(v).or_insert(next)
    }

    /// Number of distinct values seen.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Has no value been seen?
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

impl Relation {
    /// Columnar view of attribute `col`.
    ///
    /// # Panics
    /// If `col` is out of range for the schema.
    pub fn column(&self, col: usize) -> Column<'_> {
        assert!(
            col < self.schema().arity(),
            "column {col} out of range for schema {}",
            self.schema()
        );
        Column::new(self, col)
    }

    /// Group-encode rows by their projection onto `cols`: per-row ids
    /// with `id[i] == id[j]` iff rows `i` and `j` agree on every listed
    /// column (the `xi = yi` test of Pareto/prioritised accumulation,
    /// and the grouping key of `groupby`). Ids are dense, first-seen
    /// order; the second component is the number of distinct groups.
    ///
    /// # Panics
    /// If any index in `cols` is out of range.
    pub fn group_ids(&self, cols: &[usize]) -> (Vec<u32>, usize) {
        if let [col] = cols {
            // Single-column grouping is dictionary encoding.
            return self.column(*col).dictionary();
        }
        let mut dict: FastMap<Tuple, u32> = FastMap::default();
        let ids = self
            .iter()
            .map(|t| {
                let key = t.project(cols);
                let next = dict.len() as u32;
                *dict.entry(key).or_insert(next)
            })
            .collect();
        (ids, dict.len())
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::rel;
    use crate::schema::{DataType, Schema};
    use crate::value::Date;

    fn sample() -> Relation {
        rel! {
            ("make": Str, "price": Int, "rating": Float);
            ("audi", 30, 4.5),
            ("bmw", 20, 3.0),
            ("audi", 30, 4.5),
            ("vw", 10, 3.0),
        }
    }

    #[test]
    fn iter_and_field() {
        let r = sample();
        let c = r.column(1);
        assert_eq!(c.len(), 4);
        let prices: Vec<i64> = c.iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(prices, vec![30, 20, 30, 10]);
    }

    #[test]
    fn dictionary_ids_match_value_equality() {
        let r = sample();
        let (ids, n) = r.column(0).dictionary();
        assert_eq!(n, 3);
        assert_eq!(ids[0], ids[2]);
        assert_ne!(ids[0], ids[1]);
        assert_ne!(ids[1], ids[3]);
    }

    #[test]
    fn group_ids_over_projections() {
        let r = sample();
        let (ids, n) = r.group_ids(&[0, 2]);
        assert_eq!(n, 3);
        assert_eq!(ids[0], ids[2]); // ("audi", 4.5) twice
        assert_ne!(ids[1], ids[3]); // ("bmw", 3.0) vs ("vw", 3.0)
                                    // Empty projection: all rows in one group.
        let (ids, n) = r.group_ids(&[]);
        assert_eq!(n, 1);
        assert!(ids.iter().all(|&i| i == 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn column_bounds_checked() {
        sample().column(9);
    }

    /// `2⁵³`: every integer up to this magnitude is exact in an `f64`.
    const EXACT: i64 = 1 << 53;

    /// Edge values of `dtype`: ±0.0, ±∞, NaN payloads, ±2⁵³ and
    /// ±(2⁵³ + 1), the ends of each range.
    fn edges(dtype: DataType) -> Vec<Value> {
        match dtype {
            DataType::Int => [
                0,
                1,
                -1,
                EXACT,
                -EXACT,
                EXACT + 1,
                -(EXACT + 1),
                i64::MIN,
                i64::MAX,
            ]
            .map(Value::Int)
            .to_vec(),
            DataType::Float => [
                0.0,
                -0.0,
                1.0,
                EXACT as f64,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                -f64::NAN,
                f64::from_bits(0x7ff8_0000_0000_0001), // quiet NaN, other payload
                f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
                f64::from_bits(1),                     // smallest subnormal
            ]
            .map(Value::Float)
            .to_vec(),
            DataType::Date => [0, 1, -1, i32::MIN, i32::MIN + 1, i32::MAX - 1, i32::MAX]
                .map(|d| Value::Date(Date::from_days(d)))
                .to_vec(),
            DataType::Bool => vec![Value::Bool(false), Value::Bool(true)],
            DataType::Str => vec![Value::from(""), Value::from("a")],
        }
    }

    /// A value of `dtype`: one of its edges or an arbitrary one.
    fn value_of(dtype: DataType) -> BoxedStrategy<Value> {
        let arbitrary = match dtype {
            DataType::Int => any::<i64>().prop_map(Value::Int).boxed(),
            DataType::Float => any::<f64>().prop_map(Value::Float).boxed(),
            DataType::Date => any::<i32>()
                .prop_map(|d| Value::Date(Date::from_days(d)))
                .boxed(),
            DataType::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
            DataType::Str => "[a-c]{0,2}".prop_map(|s| Value::from(s.as_str())).boxed(),
        };
        let edges = edges(dtype);
        prop_oneof![
            (0..edges.len()).prop_map(move |i| edges[i].clone()),
            arbitrary
        ]
        .boxed()
    }

    proptest! {
        /// The contract behind a single-numeric-column equality lane:
        /// ints within ±2⁵³, floats, dates and bools get a code, and equal
        /// codes ⟺ equal values (floats by bit pattern, so `0.0 ≠ -0.0`
        /// and NaN payloads differ, as in `Value`'s order); strings, NULL
        /// and ints beyond ±2⁵³ get none. Each case puts two drawn values
        /// beside every edge value and a NULL in one column and checks
        /// every pair.
        #[test]
        fn fingerprints_are_lossless_exactly_where_defined(
            ints in (value_of(DataType::Int), value_of(DataType::Int)),
            floats in (value_of(DataType::Float), value_of(DataType::Float)),
            dates in (value_of(DataType::Date), value_of(DataType::Date)),
            bools in (value_of(DataType::Bool), value_of(DataType::Bool)),
            strs in (value_of(DataType::Str), value_of(DataType::Str)),
        ) {
            let coded = |v: &Value| match v {
                Value::Int(i) => i.unsigned_abs() <= EXACT as u64,
                Value::Str(_) | Value::Null => false,
                _ => true,
            };
            for (dtype, (a, b)) in [
                (DataType::Int, ints),
                (DataType::Float, floats),
                (DataType::Date, dates),
                (DataType::Bool, bools),
                (DataType::Str, strs),
            ] {
                let mut values = vec![a, b, Value::Null];
                values.extend(edges(dtype));
                let rows = values.iter().map(|v| Tuple::new(vec![v.clone()])).collect();
                let r = Relation::from_rows(Schema::new(vec![("x", dtype)]).unwrap(), rows).unwrap();
                let codes: Vec<_> = r.column(0).iter().map(Value::fingerprint).collect();
                for (v, code) in values.iter().zip(&codes) {
                    prop_assert_eq!(code.is_some(), coded(v), "{:?}", v);
                }
                for (v, cv) in values.iter().zip(&codes) {
                    for (w, cw) in values.iter().zip(&codes) {
                        if let (Some(cv), Some(cw)) = (cv, cw) {
                            prop_assert_eq!(cv == cw, v == w, "{:?} vs {:?}", v, w);
                        }
                    }
                }
            }
        }
    }
}
