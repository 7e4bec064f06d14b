//! Column statistics as a standalone value.
//!
//! A [`ColumnStats`] records a row count and a per-column value multiset
//! (value → occurrence count) of one relation content state — enough to
//! answer `distinct(attr)` exactly. Nothing in the workspace keeps one:
//! a [`Relation`] carries no statistics and the query planner reads
//! none. [`ColumnStats::of`] counts a relation from scratch and
//! [`ColumnStats::advance`] carries a previous count forward over an
//! append-only delta; both are written over the one counting loop,
//! `add_row`.

use std::collections::HashMap;

use crate::attr::Attr;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::Value;

/// The column statistics of one relation content state.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    generation: u64,
    rows: usize,
    /// One value-count multiset per schema column, in column order.
    per_column: Vec<HashMap<Value, u32>>,
}

impl ColumnStats {
    /// Count `r` from scratch (full scan of every column).
    pub fn of(r: &Relation) -> ColumnStats {
        ColumnStats::advance(None, r)
    }

    /// The statistics of `r`'s current state, as a fresh value: when
    /// `r`'s delta proves the rows `prev` counted an unchanged prefix,
    /// `prev`'s counts are copied and only the appended suffix is
    /// scanned; anything the delta cannot vouch for (`prev = None`,
    /// deletes, a flattened or overflowed delta) is a full recount.
    pub fn advance(prev: Option<&ColumnStats>, r: &Relation) -> ColumnStats {
        let (mut stats, counted) = prev
            .and_then(|p| claimable_prefix(p, r).map(|base_len| (p.clone(), base_len)))
            .unwrap_or_else(|| {
                let per_column = vec![HashMap::new(); r.schema().arity()];
                let empty = ColumnStats {
                    generation: 0,
                    rows: 0,
                    per_column,
                };
                (empty, 0)
            });
        for i in counted..r.len() {
            stats.add_row(r.row(i).values());
        }
        stats.generation = r.generation();
        stats
    }

    /// Count one more row. O(arity).
    fn add_row(&mut self, row: &[Value]) {
        self.rows += 1;
        for (counts, v) in self.per_column.iter_mut().zip(row) {
            *counts.entry(v.clone()).or_insert(0) += 1;
        }
    }

    /// The relation generation these statistics describe.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Row count at that generation.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Exact number of distinct values in column `col` (by index).
    pub fn distinct_by_index(&self, col: usize) -> usize {
        self.per_column.get(col).map_or(0, HashMap::len)
    }

    /// Exact number of distinct values in the named column, resolved
    /// through `schema`. `None` for unknown attributes.
    pub fn distinct(&self, schema: &Schema, attr: &Attr) -> Option<usize> {
        schema.index_of(attr).map(|i| self.distinct_by_index(i))
    }
}

/// If `r`'s delta records `prev`'s generation as a base whose prefix is
/// provably unchanged (no tombstones since that base), return the base
/// length — the number of leading rows whose counts can be carried over
/// verbatim.
fn claimable_prefix(prev: &ColumnStats, r: &Relation) -> Option<usize> {
    let d = r.delta()?;
    let (k, &(_, base_len)) = d
        .bases()
        .iter()
        .enumerate()
        .find(|(_, (g, _))| *g == prev.generation)?;
    if !d.deleted_since(k).is_empty() || base_len != prev.rows || base_len > r.len() {
        return None;
    }
    Some(base_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel;
    use crate::tuple::Tuple;

    fn sample() -> Relation {
        rel! {
            ("a": Int, "b": Str);
            (1, "x"), (2, "y"), (1, "x"), (3, "y"),
        }
    }

    #[test]
    fn fresh_snapshot_counts_distincts() {
        let r = sample();
        let s = ColumnStats::of(&r);
        assert_eq!(s.rows(), 4);
        assert_eq!(s.generation(), r.generation());
        assert_eq!(s.distinct_by_index(0), 3);
        assert_eq!(s.distinct_by_index(1), 2);
        assert_eq!(s.distinct(r.schema(), &crate::attr::attr("b")), Some(2));
    }

    #[test]
    fn append_advances_incrementally() {
        let mut r = sample();
        let s0 = ColumnStats::of(&r);
        r.push(Tuple::new(vec![Value::from(9), Value::from("z")]))
            .unwrap();
        let s1 = ColumnStats::advance(Some(&s0), &r);
        assert_eq!(s1.rows(), 5);
        assert_eq!(s1.generation(), r.generation());
        assert_eq!(s1.distinct_by_index(0), 4);
        assert_eq!(s1.distinct_by_index(1), 3);
        // The incremental counts match a full recount exactly.
        let fresh = ColumnStats::of(&r);
        assert_eq!(s1.distinct_by_index(0), fresh.distinct_by_index(0));
        assert_eq!(s1.distinct_by_index(1), fresh.distinct_by_index(1));
    }

    #[test]
    fn delete_falls_back_to_recount() {
        let mut r = sample();
        let s0 = ColumnStats::of(&r);
        r.delete_row(0);
        let s1 = ColumnStats::advance(Some(&s0), &r);
        assert_eq!(s1.rows(), 3);
        assert_eq!(s1.distinct_by_index(0), 3); // 2, 1, 3
        assert_eq!(s1.distinct_by_index(1), 2); // y, x
    }

    #[test]
    fn same_generation_is_a_clone() {
        let r = sample();
        let s0 = ColumnStats::of(&r);
        let s1 = ColumnStats::advance(Some(&s0), &r);
        assert_eq!(s1.rows(), s0.rows());
        assert_eq!(s1.generation(), s0.generation());
        assert_eq!(s1.distinct_by_index(0), s0.distinct_by_index(0));
    }
}
