//! Layered preferences: the common super-constructor behind POS, NEG,
//! POS/NEG and POS/POS.
//!
//! §3.3.2 of the paper characterises the non-numerical base constructors as
//! linear sums of anti-chains, e.g. `POS = POS-set↔ ⊕ other-values↔`.
//! [`Layered`] implements exactly that: an ordered list of value layers,
//! one of which may be the implicit "other values" layer. §3.4 notes
//! "there is certainly space for more sub-constructor relationships" — this
//! is that more general constructor, and the unit tests of
//! `algebra::hierarchy` verify that the four Def. 6 constructors are
//! special cases of it.

use std::collections::HashSet;

use pref_relation::Value;

use super::{fmt_value_set, BasePreference, Range};
use crate::error::CoreError;

/// One layer of a [`Layered`] preference.
#[derive(Debug, Clone)]
pub enum Layer {
    /// An explicit, finite anti-chain of values.
    Set(HashSet<Value>),
    /// All domain values not mentioned in any other layer
    /// (the paper's "other values").
    Others,
}

impl Layer {
    /// Convenience constructor for an explicit layer.
    pub fn of<I, V>(values: I) -> Layer
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Layer::Set(values.into_iter().map(Into::into).collect())
    }
}

/// A linear sum of anti-chain layers: values in earlier layers are better
/// than values in later layers; values within one layer are unranked.
#[derive(Debug, Clone)]
pub struct Layered {
    layers: Vec<Layer>,
}

impl Layered {
    /// Build from layers, best first. At most one [`Layer::Others`] is
    /// allowed and explicit layers must be pairwise disjoint (Def. 12
    /// requires disjoint carriers).
    pub fn new(layers: Vec<Layer>) -> Result<Self, CoreError> {
        let mut seen: HashSet<Value> = HashSet::new();
        let mut others = 0;
        for layer in &layers {
            match layer {
                Layer::Others => others += 1,
                Layer::Set(s) => {
                    for v in s {
                        if !seen.insert(v.clone()) {
                            return Err(CoreError::CarriersNotDisjoint { witness: v.clone() });
                        }
                    }
                }
            }
        }
        if others > 1 {
            // A second Others layer would overlap the first everywhere;
            // report it as a carrier overlap without a specific witness.
            return Err(CoreError::CarriersNotDisjoint {
                witness: Value::Null,
            });
        }
        Ok(Layered { layers })
    }

    /// 0-based index of the layer containing `v`.
    fn layer_of(&self, v: &Value) -> usize {
        let mut others_at = self.layers.len(); // default: below everything
        for (i, layer) in self.layers.iter().enumerate() {
            match layer {
                Layer::Set(s) => {
                    if s.contains(v) {
                        return i;
                    }
                }
                Layer::Others => others_at = i,
            }
        }
        others_at
    }
}

impl BasePreference for Layered {
    fn name(&self) -> &'static str {
        "LAYERED"
    }

    fn better(&self, x: &Value, y: &Value) -> bool {
        // Strictly earlier layer = strictly better. Values outside every
        // layer (possible only when no Others layer exists) sit below all
        // layers and are mutually unranked.
        self.layer_of(y) < self.layer_of(x)
    }

    fn level(&self, v: &Value) -> Option<u32> {
        Some(self.layer_of(v) as u32 + 1)
    }

    // `layer_of` is total (outside values share the bottom), so the
    // negated layer index is an exact dominance key.
    fn dominance_key(&self, v: &Value) -> Option<f64> {
        Some(-(self.layer_of(v) as f64))
    }

    fn is_top(&self, v: &Value) -> Option<bool> {
        Some(self.layer_of(v) == 0)
    }

    fn range(&self) -> Range {
        if self.layers.len() <= 1 {
            Range::Known(HashSet::new())
        } else {
            Range::Unbounded
        }
    }

    fn params(&self) -> String {
        let body: Vec<String> = self
            .layers
            .iter()
            .map(|l| match l {
                Layer::Set(s) => fmt_value_set(s),
                Layer::Others => "others".to_string(),
            })
            .collect();
        body.join(" ⊕ ")
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
    fn pos_as_layers() {
        // POS = POS-set↔ ⊕ other-values↔   (§3.3.2)
        let p = Layered::new(vec![Layer::of(["a", "b"]), Layer::Others]).unwrap();
        assert!(p.better(&v("z"), &v("a")));
        assert!(!p.better(&v("a"), &v("z")));
        assert!(!p.better(&v("a"), &v("b")));
        assert_eq!(p.level(&v("a")), Some(1));
        assert_eq!(p.level(&v("z")), Some(2));
    }

    #[test]
    fn pos_neg_as_layers() {
        // POS/NEG = (POS↔ ⊕ others↔) ⊕ NEG↔
        let p = Layered::new(vec![
            Layer::of(["yellow"]),
            Layer::Others,
            Layer::of(["gray"]),
        ])
        .unwrap();
        assert!(p.better(&v("gray"), &v("red")));
        assert!(p.better(&v("red"), &v("yellow")));
        assert!(p.better(&v("gray"), &v("yellow")));
        assert_eq!(p.level(&v("gray")), Some(3));
    }

    #[test]
    fn missing_others_layer_puts_strangers_at_bottom() {
        let p = Layered::new(vec![Layer::of(["a"]), Layer::of(["b"])]).unwrap();
        assert!(p.better(&v("stranger"), &v("b")));
        assert!(!p.better(&v("b"), &v("stranger")));
        assert!(!p.better(&v("s1"), &v("s2")));
        assert_eq!(p.level(&v("stranger")), Some(3));
    }

    #[test]
    fn rejects_overlapping_layers() {
        let err = Layered::new(vec![Layer::of(["a"]), Layer::of(["a", "b"])]).unwrap_err();
        assert!(matches!(err, CoreError::CarriersNotDisjoint { .. }));
        let err = Layered::new(vec![Layer::Others, Layer::Others]).unwrap_err();
        assert!(matches!(err, CoreError::CarriersNotDisjoint { .. }));
    }

    #[test]
    fn is_strict_partial_order() {
        let p = Layered::new(vec![Layer::of(["a"]), Layer::Others, Layer::of(["x", "y"])]).unwrap();
        let dom: Vec<Value> = ["a", "b", "c", "x", "y"].iter().map(|s| v(s)).collect();
        check_spo_values(&p, &dom).unwrap();
    }

    #[test]
    fn single_layer_is_antichain() {
        let p = Layered::new(vec![Layer::Others]).unwrap();
        assert!(!p.better(&v("a"), &v("b")));
        assert_eq!(p.range(), Range::Known(HashSet::new()));
    }
}
