//! Error type for Preference SQL.

use std::fmt;

use pref_core::CoreError;
use pref_query::QueryError;
use pref_relation::RelationError;

/// Errors raised while lexing, parsing, planning or executing a
/// Preference SQL query.
#[derive(Debug, Clone)]
pub enum SqlError {
    /// Lexical error at a byte offset.
    Lex { pos: usize, message: String },
    /// Syntax error: what was expected vs. what was found.
    Parse {
        pos: usize,
        expected: String,
        found: String,
    },
    /// The FROM table is not registered in the catalog.
    UnknownTable(String),
    /// A column is missing from the table schema.
    UnknownColumn { table: String, column: String },
    /// A literal cannot be coerced to the column's type.
    BadLiteral { column: String, literal: String },
    /// A prepared statement was executed with the wrong number of
    /// parameters.
    ParamCount { expected: usize, got: usize },
    /// A `$n` placeholder reached evaluation without a bound value
    /// (e.g. via `execute` instead of `prepare` + bind).
    UnboundParam { index: usize },
    /// A bound parameter value cannot stand in for a literal (NULL, a
    /// non-finite float, a value a preference clause's column rejects,
    /// a negative LIMIT/TOP count).
    BadParam { index: usize, value: String },
    /// `prepare` found a `$n` index the statement never reads (gapped
    /// numbering, e.g. `$1` and `$3` with no `$2`): every binding would
    /// silently ignore a value.
    UnusedParam { index: usize },
    /// Preference construction failed (e.g. overlapping POS/NEG sets).
    Core(CoreError),
    /// BMO evaluation failed.
    Query(QueryError),
    /// Substrate failure.
    Relation(RelationError),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex { pos, message } => write!(f, "lex error at byte {pos}: {message}"),
            SqlError::Parse {
                pos,
                expected,
                found,
            } => write!(
                f,
                "parse error at token {pos}: expected {expected}, found {found}"
            ),
            SqlError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            SqlError::UnknownColumn { table, column } => {
                write!(f, "table `{table}` has no column `{column}`")
            }
            SqlError::BadLiteral { column, literal } => {
                write!(f, "literal {literal} does not fit column `{column}`")
            }
            SqlError::ParamCount { expected, got } => {
                write!(f, "statement takes {expected} parameter(s), {got} given")
            }
            SqlError::UnboundParam { index } => {
                write!(
                    f,
                    "parameter ${index} is not bound; prepare the statement and \
                     pass values to execute"
                )
            }
            SqlError::BadParam { index, value } => {
                write!(f, "parameter ${index} cannot bind value {value}")
            }
            SqlError::UnusedParam { index } => {
                write!(
                    f,
                    "parameter ${index} is never used; placeholder numbering \
                     must be gapless from $1"
                )
            }
            SqlError::Core(e) => write!(f, "{e}"),
            SqlError::Query(e) => write!(f, "{e}"),
            SqlError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SqlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SqlError::Core(e) => Some(e),
            SqlError::Query(e) => Some(e),
            SqlError::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for SqlError {
    fn from(e: CoreError) -> Self {
        SqlError::Core(e)
    }
}

impl From<QueryError> for SqlError {
    fn from(e: QueryError) -> Self {
        SqlError::Query(e)
    }
}

impl From<RelationError> for SqlError {
    fn from(e: RelationError) -> Self {
        SqlError::Relation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = SqlError::Parse {
            pos: 3,
            expected: "FROM".into(),
            found: "PREFERRING".into(),
        };
        assert!(e.to_string().contains("expected FROM"));
        assert!(SqlError::UnknownTable("cars".into())
            .to_string()
            .contains("cars"));
    }
}
