//! Statistics carried forward by `ColumnStats::advance` are exactly what
//! a recount would find — after every mutation, on the relation and on a
//! clone that diverged from it.

use pref_relation::{rel, ColumnStats, Relation, Value};
use proptest::prelude::*;

fn row(a: i64, b: usize) -> Vec<Value> {
    vec![Value::from(a), Value::from(["x", "y", "z"][b])]
}

proptest! {
    /// Random histories of push / delete_row over a relation and (from a
    /// random step on) a clone of it, with counting started at a random
    /// step: from then on, advancing the previous step's statistics
    /// equals `ColumnStats::of` after every step.
    #[test]
    fn advanced_statistics_equal_a_recount(
        ops in proptest::collection::vec(
            (0usize..3, any::<bool>(), 0i64..4, 0usize..3, 0usize..16), 1..24),
        ask_at in 0usize..12,
    ) {
        let mut rs: Vec<Relation> = vec![rel! {
            ("a": Int, "b": Str);
            (1, "x"), (2, "y"), (1, "x"), (3, "y"),
        }];
        let mut prevs: Vec<Option<ColumnStats>> = vec![None];
        for (step, (kind, on_clone, a, b, at)) in ops.into_iter().enumerate() {
            let target = usize::from(on_clone).min(rs.len() - 1);
            let r = &mut rs[target];
            match kind {
                0 => r.push_values(row(a, b)).expect("row matches schema"),
                1 if !r.is_empty() => r.delete_row(at % r.len()),
                2 if rs.len() == 1 => {
                    let fork = rs[0].clone();
                    rs.push(fork);
                    prevs.push(prevs[0].clone());
                }
                _ => {}
            }
            if step < ask_at {
                continue;
            }
            for (r, prev) in rs.iter().zip(&mut prevs) {
                let got = ColumnStats::advance(prev.as_ref(), r);
                let want = ColumnStats::of(r);
                prop_assert_eq!(got.rows(), want.rows());
                prop_assert_eq!(got.rows(), r.len());
                prop_assert_eq!(got.generation(), r.generation());
                for c in 0..r.schema().arity() {
                    prop_assert_eq!(
                        got.distinct_by_index(c), want.distinct_by_index(c),
                        "column {} after step {} (kind {})", c, step, kind);
                }
                *prev = Some(got);
            }
        }
    }
}
