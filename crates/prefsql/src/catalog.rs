//! A catalog of named relations — the database behind FROM clauses.

use std::collections::HashMap;

use pref_relation::Relation;

use crate::error::SqlError;

/// Named-table registry. Table names are case-insensitive, like SQL.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Relation>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register (or replace) a table.
    pub fn register(&mut self, name: &str, table: Relation) {
        self.tables.insert(name.to_ascii_lowercase(), table);
    }

    /// Look up a table.
    pub fn get(&self, name: &str) -> Result<&Relation, SqlError> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// Look up a table for in-place mutation. Mutating through the
    /// returned reference (e.g. [`Relation::push_values`]) bumps the
    /// table's generation, so cached results and score matrices can
    /// never serve stale data: the engine maintains a cached result
    /// across the mutation first (a `GROUP BY` statement's result too:
    /// it is the term `A↔ & P`), and a caller that reads the matrix
    /// itself (`TOP`, a parameterized `WHERE`'s window warm-up) gets it
    /// rebuilt in full.
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Relation, SqlError> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// Registered table names (lower-cased), sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_relation::rel;

    #[test]
    fn register_and_lookup_case_insensitive() {
        let mut c = Catalog::new();
        c.register("Cars", rel! { ("a": Int); (1,) });
        assert!(c.get("cars").is_ok());
        assert!(c.get("CARS").is_ok());
        assert!(matches!(c.get("trips"), Err(SqlError::UnknownTable(_))));
        assert_eq!(c.table_names(), vec!["cars"]);
    }

    #[test]
    fn replace_keeps_latest() {
        let mut c = Catalog::new();
        c.register("t", rel! { ("a": Int); (1,) });
        c.register("t", rel! { ("a": Int); (1,), (2,) });
        assert_eq!(c.get("t").unwrap().len(), 2);
    }
}
