//! Integrity constraints on stored relations — the semantic knowledge
//! Chomicki-style preference-query optimization is gated on.
//!
//! A [`Constraint`] is a fact that holds for every tuple of every
//! relation stored under a [`Schema`](crate::Schema) (e.g. "this catalog
//! only ever contains `category = 'used'` rows", or "`fuel` is one of
//! {gas, diesel, hybrid}"). The query layer uses them to prove a winnow
//! redundant (the preference cannot discriminate between any two stored
//! tuples, so `σ[P](R) = R`) or a hard selection commutable with the
//! winnow — see `pref-query`'s plan module.
//!
//! Constraints are *enforced*: the one way a row becomes visible in a
//! relation, [`Relation::push`], asks [`Constraint::admits`] first and
//! refuses the mutation with [`RelationError::ConstraintViolation`](crate::RelationError::ConstraintViolation)
//! — the relation, its generation and its delta stay untouched — so the
//! plans that reason from a declaration can never be made wrong by a
//! later write. Deleting and selecting only shrink the row set, which
//! keeps both constraint kinds true. [`Constraint::holds_on`] remains as
//! the whole-relation witness for tests.

use std::fmt;

use crate::attr::Attr;
use crate::relation::Relation;
use crate::value::Value;
use crate::Result;

/// One declared integrity constraint over a single attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// Every stored tuple carries the same value in `attr` (the value
    /// itself is not fixed by the constraint — only its uniformity).
    /// The strongest semantic fact: any preference that only looks at
    /// constant attributes can never prefer one stored tuple over
    /// another.
    Constant { attr: Attr },
    /// `attr` only ever holds one of `values` (a domain / CHECK-style
    /// constraint). Lets the optimizer decide POS/NEG redundancy by set
    /// inclusion against the declared domain.
    Domain { attr: Attr, values: Vec<Value> },
}

impl Constraint {
    /// The attribute this constraint ranges over.
    pub fn attr(&self) -> &Attr {
        match self {
            Constraint::Constant { attr } => attr,
            Constraint::Domain { attr, .. } => attr,
        }
    }

    /// Would a row carrying `value` in [`Constraint::attr`] keep the
    /// constraint true? `other` is the value any other stored row
    /// carries there (`None` when the row stands alone): a `CONSTANT`
    /// attribute admits exactly that value, or any value for a lone row;
    /// a `DOMAIN` admits the declared set whatever else is stored.
    pub fn admits(&self, value: &Value, other: Option<&Value>) -> bool {
        match self {
            Constraint::Constant { .. } => other.is_none_or(|o| o == value),
            Constraint::Domain { values, .. } => values.contains(value),
        }
    }

    /// Does the constraint actually hold on `r`? The whole-relation
    /// witness for property tests — mutations enforce it row by row
    /// through [`Constraint::admits`].
    pub fn holds_on(&self, r: &Relation) -> Result<bool> {
        let i = r.schema().require(self.attr())?;
        let first = r.iter().next().map(|t| &t[i]);
        Ok(r.iter().all(|t| self.admits(&t[i], first)))
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Constant { attr } => write!(f, "CONSTANT({attr})"),
            Constraint::Domain { attr, values } => {
                write!(f, "DOMAIN({attr} ∈ {{")?;
                for (k, v) in values.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::attr;
    use crate::rel;

    #[test]
    fn constant_holds_and_fails() {
        let r = rel! { ("a": Int, "b": Int); (1, 9), (1, 8), (1, 7) };
        let c = Constraint::Constant { attr: attr("a") };
        assert!(c.holds_on(&r).unwrap());
        let c = Constraint::Constant { attr: attr("b") };
        assert!(!c.holds_on(&r).unwrap());
        let c = Constraint::Constant { attr: attr("nope") };
        assert!(c.holds_on(&r).is_err());
    }

    #[test]
    fn domain_holds_and_fails() {
        let r = rel! { ("c": Str); ("x",), ("y",) };
        let d = Constraint::Domain {
            attr: attr("c"),
            values: vec![Value::from("x"), Value::from("y"), Value::from("z")],
        };
        assert!(d.holds_on(&r).unwrap());
        let d = Constraint::Domain {
            attr: attr("c"),
            values: vec![Value::from("x")],
        };
        assert!(!d.holds_on(&r).unwrap());
    }

    #[test]
    fn display_is_readable() {
        let c = Constraint::Domain {
            attr: attr("c"),
            values: vec![Value::from("x"), Value::from("y")],
        };
        assert_eq!(c.to_string(), "DOMAIN(c ∈ {'x', 'y'})");
        let c = Constraint::Constant { attr: attr("a") };
        assert_eq!(c.to_string(), "CONSTANT(a)");
    }
}
