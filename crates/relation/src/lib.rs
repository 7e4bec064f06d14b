//! # pref-relation — relational substrate for preference queries
//!
//! An in-memory, typed relational engine: [`Value`]s, interned attribute
//! names ([`Attr`]), [`Schema`]s, [`Tuple`]s and [`Relation`]s.
//!
//! This crate plays the role of the SQL92 backends (DB2, Oracle 8i, …) that
//! Preference SQL rewrites into in the paper: it stores "database sets" `R`
//! and supports the hard-constraint operations (selection, projection,
//! distinct) that preference queries compose with. Everything
//! preference-specific lives in `pref-core` and `pref-query` on top.
//!
//! ## Example
//!
//! ```
//! use pref_relation::{Relation, Schema, DataType, Value};
//!
//! let schema = Schema::new(vec![
//!     ("make", DataType::Str),
//!     ("price", DataType::Int),
//! ]).unwrap();
//! let mut cars = Relation::empty(schema);
//! cars.push_values(vec![Value::from("Audi"), Value::from(40_000)]).unwrap();
//! cars.push_values(vec![Value::from("VW"), Value::from(20_000)]).unwrap();
//! assert_eq!(cars.len(), 2);
//! let cheap = cars.select(|t| t[1] <= Value::from(25_000));
//! assert_eq!(cheap.len(), 1);
//! ```

pub mod attr;
pub mod colstats;
pub mod column;
pub mod constraint;
pub mod error;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

#[macro_use]
mod macros;

pub use attr::{attr, Attr, AttrSet};
pub use colstats::ColumnStats;
pub use column::{Column, Dictionary};
pub use constraint::Constraint;
pub use error::RelationError;
pub use relation::{predicate_fingerprint, Delta, Lineage, Relation, Rows};
pub use schema::{DataType, Field, Schema};
pub use tuple::Tuple;
pub use value::{Date, Value};

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, RelationError>;
