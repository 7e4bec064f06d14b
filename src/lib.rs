//! # preferences — foundations of preferences in database systems
//!
//! A Rust implementation of
//!
//! > W. Kießling. *Foundations of Preferences in Database Systems.*
//! > VLDB 2002.
//!
//! This facade re-exports the whole stack:
//!
//! | crate | contents |
//! |---|---|
//! | [`relation`] | values, attributes, schemas, tuples, relations |
//! | [`core`] | preference terms, base + complex constructors, algebra |
//! | [`query`] | BMO evaluation: `Engine::prepare → Prepared::execute`, algorithms, decomposition, planner |
//! | [`prefsql`] | Preference SQL (`PREFERRING … CASCADE … BUT ONLY`) |
//! | [`prefxpath`] | Preference XPath (`#[ … ]#` soft selections) |
//! | [`server`] | concurrent query service (TCP + in-process sessions) |
//! | [`workload`] | seeded data generators + the paper's literal examples |
//!
//! ## Quickstart
//!
//! ```
//! use preferences::prelude::*;
//!
//! let cars = rel! {
//!     ("color": Str, "price": Int, "mileage": Int);
//!     ("red", 40_000, 15_000),
//!     ("gray", 35_000, 30_000),
//!     ("red", 20_000, 10_000),
//!     ("blue", 15_000, 35_000),
//! };
//! // "no gray, then as cheap and low-mileage as equally-important wishes"
//! let wish = neg("color", ["gray"])
//!     .prior(lowest("price").pareto(lowest("mileage")));
//! // One way in: prepare the term once, execute it as often as needed.
//! let query = Engine::new().prepare(&wish, cars.schema()).unwrap();
//! let best = query.execute_rel(&cars).unwrap();
//! assert_eq!(best.len(), 2);
//! // One report out: every execution explains itself.
//! println!("{}", query.execute(&cars).unwrap().explain());
//! ```

pub use pref_core as core;
pub use pref_query as query;
pub use pref_relation as relation;
pub use pref_server as server;
pub use pref_sql as prefsql;
pub use pref_workload as workload;
pub use pref_xpath as prefxpath;

/// One-stop imports for applications.
pub mod prelude {
    pub use pref_core::prelude::*;
    pub use pref_query::quality::{self, QualityCond, QualityFilter};
    pub use pref_query::{Algorithm, CacheStatus, Engine, Optimizer, Prepared, QueryError};
    pub use pref_relation::{
        attr, predicate_fingerprint, rel, Attr, AttrSet, DataType, Date, Lineage, Relation, Schema,
        Tuple, Value,
    };
    pub use pref_sql::PrefSql;
    pub use pref_xpath::{parse_xml, PrefXPath};
}
