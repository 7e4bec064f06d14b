//! # pref-sql — Preference SQL (§6.1 of the paper)
//!
//! An implementation of the Preference SQL language: standard selection /
//! projection extended by soft constraints,
//!
//! ```sql
//! SELECT * FROM car WHERE make = 'Opel'
//! PREFERRING (category = 'roadster' ELSE category <> 'passenger' AND
//!             price AROUND 40000 AND HIGHEST(power))
//! CASCADE color = 'red' CASCADE LOWEST(mileage);
//! ```
//!
//! where `AND` inside PREFERRING is *Pareto accumulation*, `PRIOR TO` and
//! `CASCADE` are *prioritised accumulation*, `ELSE` builds POS/POS and
//! POS/NEG, `GROUP BY` is Def. 16 grouping, and `BUT ONLY` supervises the
//! LEVEL / DISTANCE quality functions. Instead of rewriting into SQL92
//! (the product's plug-and-go route), queries compile into the native
//! preference algebra and run under the BMO query model of `pref-query`.
//!
//! Every statement — ad hoc, prepared, `EXPLAIN` — takes one path,
//! *compile once per (statement, schema), then bind and run*:
//! [`parser`] → [`rewrite`] (the one atom table: atoms to Def. 6/7 base
//! preferences over concrete values; literal coercion, WHERE predicates
//! and BUT ONLY filters) → `bind` (the compiled statement; a `$n` binds
//! by substituting its value into the AST as the literal it stands for,
//! in every clause) → `pushdown` (hard selection and its commutation
//! past the winnow) → [`executor`] ([`PrefSql`], [`PreparedStatement`],
//! the pipeline, `EXPLAIN SELECT`).
//!
//! ## Example
//!
//! ```
//! use pref_sql::PrefSql;
//! use pref_relation::rel;
//!
//! let mut db = PrefSql::new();
//! db.register("car", rel! {
//!     ("make": Str, "price": Int);
//!     ("Opel", 38_000), ("BMW", 45_000), ("Opel", 44_000),
//! });
//! let res = db.execute("SELECT * FROM car PREFERRING price AROUND 40000").unwrap();
//! assert_eq!(res.relation.len(), 1); // the 38k Opel is closest
//! ```

pub mod ast;
mod bind;
pub mod catalog;
pub mod error;
pub mod executor;
pub mod parser;
mod pushdown;
pub mod rewrite;
mod token;

pub use catalog::Catalog;
pub use error::SqlError;
pub use executor::{PrefSql, PreparedStatement, QueryResult};
pub use parser::{parse, parse_statement};
