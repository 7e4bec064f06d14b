//! Error type for preference construction and compilation.

use std::fmt;

use pref_relation::{Attr, RelationError, Value};

/// Errors raised while constructing or compiling preference terms.
///
/// Note what is *not* an error: conflicting preferences. Desideratum (4) of
/// the paper requires that "conflicts of preferences must not cause a system
/// failure" — composing contradictory preferences yields unranked values,
/// never an `Err`.
#[derive(Debug, Clone)]
pub enum CoreError {
    /// An attribute used by a preference is missing from the query schema.
    UnknownAttr(Attr),
    /// POS/NEG or POS1/POS2 sets must be disjoint (Def. 6c/6d).
    OverlappingSets {
        constructor: &'static str,
        witness: Value,
    },
    /// The EXPLICIT better-than graph must be acyclic (Def. 6e).
    CyclicExplicit { on_cycle: Value },
    /// BETWEEN requires `low <= up` (Def. 7b).
    EmptyInterval { low: Value, up: Value },
    /// rank(F) applies only to SCORE-family preferences (Def. 10),
    /// possibly supplied via constructor substitutability (§3.4).
    NotScorable { term: String },
    /// rank(F) and the accumulation constructors need at least one operand.
    EmptyCombination { constructor: &'static str },
    /// Intersection / disjoint union require identical attribute sets (Def. 11).
    AttrSetMismatch {
        constructor: &'static str,
        left: String,
        right: String,
    },
    /// Disjoint union requires disjoint ranges (Def. 4 / 11b).
    RangesNotDisjoint { witness: Value },
    /// Linear sum requires disjoint carriers (Def. 12).
    CarriersNotDisjoint { witness: Value },
    /// Substrate error (projection, schema lookup, …).
    Relation(RelationError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownAttr(a) => write!(f, "preference refers to unknown attribute `{a}`"),
            CoreError::OverlappingSets {
                constructor,
                witness,
            } => write!(
                f,
                "{constructor}: value sets must be disjoint, but {witness} occurs in both"
            ),
            CoreError::CyclicExplicit { on_cycle } => write!(
                f,
                "EXPLICIT: better-than graph must be acyclic, cycle through {on_cycle}"
            ),
            CoreError::EmptyInterval { low, up } => {
                write!(f, "BETWEEN: requires low <= up, got [{low}, {up}]")
            }
            CoreError::NotScorable { term } => write!(
                f,
                "rank(F): operand `{term}` is not a SCORE-family preference"
            ),
            CoreError::EmptyCombination { constructor } => {
                write!(f, "{constructor}: needs at least one operand")
            }
            CoreError::AttrSetMismatch {
                constructor,
                left,
                right,
            } => write!(
                f,
                "{constructor}: operands must share one attribute set, got {left} vs {right}"
            ),
            CoreError::RangesNotDisjoint { witness } => {
                write!(f, "disjoint union: operand ranges overlap on {witness}")
            }
            CoreError::CarriersNotDisjoint { witness } => {
                write!(f, "linear sum: carriers overlap on {witness}")
            }
            CoreError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for CoreError {
    fn from(e: RelationError) -> Self {
        CoreError::Relation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_relation::attr;

    #[test]
    fn messages_name_the_constructor() {
        let e = CoreError::OverlappingSets {
            constructor: "POS/NEG",
            witness: Value::from("red"),
        };
        assert!(e.to_string().contains("POS/NEG"));
        assert!(e.to_string().contains("'red'"));
    }

    #[test]
    fn relation_errors_convert() {
        let e: CoreError = RelationError::UnknownAttr(attr("x")).into();
        assert!(matches!(e, CoreError::Relation(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
