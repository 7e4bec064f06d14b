//! Error type for the relational substrate.

use std::fmt;

use crate::attr::Attr;
use crate::constraint::Constraint;
use crate::schema::DataType;
use crate::value::Value;

/// Errors raised by schema construction and relation manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// An attribute name occurs twice in a schema definition.
    DuplicateAttr(Attr),
    /// An attribute was referenced that the schema does not contain.
    UnknownAttr(Attr),
    /// A row had the wrong number of values for its schema.
    ArityMismatch { expected: usize, got: usize },
    /// A value's runtime type does not match the declared column type.
    TypeMismatch {
        attr: Attr,
        expected: DataType,
        got: Value,
    },
    /// Two schemas that were required to match do not.
    SchemaMismatch { left: String, right: String },
    /// A mutation would have made a declared integrity constraint false;
    /// it was refused and the relation is unchanged.
    ConstraintViolation { constraint: Constraint, got: Value },
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::DuplicateAttr(a) => {
                write!(f, "duplicate attribute `{a}` in schema")
            }
            RelationError::UnknownAttr(a) => write!(f, "unknown attribute `{a}`"),
            RelationError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row arity mismatch: schema has {expected} columns, row has {got}"
                )
            }
            RelationError::TypeMismatch {
                attr,
                expected,
                got,
            } => write!(
                f,
                "type mismatch for attribute `{attr}`: expected {expected}, got value {got}"
            ),
            RelationError::SchemaMismatch { left, right } => {
                write!(f, "schema mismatch: {left} vs {right}")
            }
            RelationError::ConstraintViolation { constraint, got } => {
                write!(f, "constraint {constraint} violated by value {got}")
            }
        }
    }
}

impl std::error::Error for RelationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::attr;

    #[test]
    fn display_messages_are_readable() {
        let e = RelationError::DuplicateAttr(attr("price"));
        assert_eq!(e.to_string(), "duplicate attribute `price` in schema");
        let e = RelationError::ArityMismatch {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("3 columns"));
        let e = RelationError::TypeMismatch {
            attr: attr("price"),
            expected: DataType::Int,
            got: Value::from("cheap"),
        };
        assert!(e.to_string().contains("expected Int"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&RelationError::UnknownAttr(attr("x")));
    }
}
