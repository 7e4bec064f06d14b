//! The [`Delta`](pref_relation::Delta) contract, checked from outside:
//! after every step of a random history of pushes and tombstone deletes
//! (including pushes onto `take_rows` / `select` views, which flatten
//! storage), every recorded base names exactly the rows the relation
//! held at that base's generation. A batch delete leaves the content the
//! same single deletes leave and records exactly one base.

use std::collections::HashMap;

use pref_relation::{rel, Delta, Relation, Tuple, Value};
use proptest::prelude::*;

/// The storage position of every visible row: its id in a view, its
/// index in a dense relation.
fn storage_ids(r: &Relation) -> Vec<u32> {
    match r.row_ids() {
        Some(ids) => ids.to_vec(),
        None => (0..r.len() as u32).collect(),
    }
}

/// What the test has seen: the rows of every generation, and the tuple
/// at every storage position (a tombstoned position keeps the tuple it
/// had while it was visible).
#[derive(Default)]
struct Seen {
    snapshots: HashMap<u64, Vec<Tuple>>,
    storage: HashMap<u32, Tuple>,
}

impl Seen {
    fn record(&mut self, r: &Relation) {
        self.snapshots.insert(r.generation(), r.to_owned_rows());
        for (id, t) in storage_ids(r).into_iter().zip(r.iter()) {
            self.storage.insert(id, t.clone());
        }
    }

    /// For every base `(g, len)` at index `k`: storage `0..len + t` minus
    /// the first `t` tombstones, `t = deleted().len() −
    /// deleted_since(k).len()`, is the snapshot taken at generation `g`.
    fn check(&self, r: &Relation) -> Result<(), TestCaseError> {
        let Some(d) = r.delta() else {
            return Ok(());
        };
        for (k, &(g, len)) in d.bases().iter().enumerate() {
            let t = d.deleted().len() - d.deleted_since(k).len();
            let before = &d.deleted()[..t];
            // `None` when a named position was never visible.
            let named: Option<Vec<Tuple>> = (0..(len + t) as u32)
                .filter(|p| !before.contains(p))
                .map(|p| self.storage.get(&p).cloned())
                .collect();
            let snapshot = self.snapshots.get(&g);
            prop_assert!(snapshot.is_some(), "base {} names an unseen generation", k);
            prop_assert_eq!(named.as_ref(), snapshot, "base {} of {:?}", k, d.bases());
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_base_names_the_rows_of_its_generation(
        ops in proptest::collection::vec((0usize..6, 0i64..50, 0usize..16), 1..40),
    ) {
        let mut r = rel! { ("a": Int); (0,), (1,), (2,), (3,) };
        let mut seen = Seen::default();
        seen.record(&r);
        for (kind, a, at) in ops {
            let row = vec![Value::from(a)];
            match kind {
                0 => r.push_values(row).expect("row matches schema"),
                1 | 2 if !r.is_empty() => r.delete_row(at % r.len()),
                // A reordered subset, then a push that flattens it.
                3 => {
                    let ids: Vec<usize> = (0..r.len()).rev().step_by(1 + at % 3).collect();
                    r = r.take_rows(&ids);
                    seen.record(&r);
                    r.push_values(row).expect("row matches schema");
                }
                4 => {
                    let keep = move |t: &Tuple| t[0].as_int().is_some_and(|v| v % 3 != a % 3);
                    r = r.select(keep);
                    seen.record(&r);
                    r.push_values(row).expect("row matches schema");
                }
                // Every `stride`-th row from `a`, indices unsorted and
                // one repeated: one mutation.
                5 if !r.is_empty() => {
                    let stride = 1 + at % 4;
                    let mut doomed: Vec<usize> =
                        (a as usize % r.len()..r.len()).step_by(stride).rev().collect();
                    // Descending, so each single delete leaves the
                    // positions still to go in place.
                    let mut singly = r.clone();
                    doomed.iter().for_each(|&i| singly.delete_row(i));
                    doomed.push(doomed[0]);
                    let bases = r.delta().map_or(0, |d| d.bases().len());
                    let (gen, len) = (r.generation(), r.len());
                    r.delete_rows(&doomed);
                    prop_assert_eq!(r.to_owned_rows(), singly.to_owned_rows());
                    if let Some(d) = r.delta() {
                        prop_assert_eq!(d.bases()[0], (gen, len));
                        prop_assert_eq!(d.bases().len(), (bases + 1).min(Delta::MAX_BASES));
                        prop_assert_eq!(d.deleted_since(0).len(), doomed.len() - 1);
                    }
                }
                _ => {}
            }
            seen.record(&r);
            seen.check(&r)?;
        }
    }
}
