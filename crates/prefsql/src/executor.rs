//! The Preference SQL execution pipeline:
//!
//! ```text
//! parse → catalog lookup → compile (once per statement and schema)
//!       → bind → WHERE (hard σ) → PREFERRING/CASCADE (BMO σ[P])
//!       → BUT ONLY (quality filter) → SELECT (π) → LIMIT
//! ```
//!
//! Hard constraints narrow the database set *before* match-making — they
//! are the exact world; the preference clauses then retrieve the best
//! matches from whatever survives, per the BMO query model.
//!
//! There is one statement path: [`PrefSql::execute`] compiles and runs
//! with no parameters, [`PreparedStatement::execute`] keeps the compiled
//! statement across calls and binds per call — every `$n` is substituted
//! into the AST as the literal it stands for (`bind`); stage 1 is
//! `pushdown`.

use std::borrow::Cow;
use std::sync::Arc;

use parking_lot::Mutex;
use pref_core::term::Pref;
use pref_query::{Engine, Explain, Optimizer, Prepared};
use pref_relation::{AttrSet, DataType, Relation, Schema, Value};

use crate::ast::{DeleteStmt, Query, SelectList, Statement};
use crate::bind::{bind_literal, check_params, resolve_limit, CompiledStatement};
use crate::catalog::Catalog;
use crate::error::SqlError;
use crate::parser::{parse, parse_statement};
use crate::pushdown::candidates;
use crate::rewrite::{hard_to_predicate, quality_to_filter};

/// The result of a Preference SQL query.
#[derive(Debug)]
pub struct QueryResult {
    /// The result tuples, projected per the SELECT list.
    pub relation: Relation,
    /// The preference term that was evaluated, if any (with GROUP BY
    /// `A`, the grouped term `A↔ & P`).
    pub preference: Option<Pref>,
    /// The report of the preference stage, if any: the BMO winnow (of
    /// `A↔ & P` with GROUP BY), or the TOP (k-best) operator that
    /// produced the rows.
    pub explain: Option<Explain>,
    /// Rows scanned after the WHERE stage (for stats/EXPLAIN).
    pub candidates: usize,
}

/// A Preference SQL session: a catalog plus a prepared-query
/// [`Engine`]. The engine's score-matrix cache spans all queries of the
/// session, so repeating a statement over an unchanged table reuses the
/// materialized matrix (`QueryResult::explain` reports hit/miss).
#[derive(Debug, Default)]
pub struct PrefSql {
    catalog: Catalog,
    engine: Engine,
}

impl PrefSql {
    pub fn new() -> Self {
        PrefSql::default()
    }

    /// Register a table.
    pub fn register(&mut self, name: &str, table: Relation) {
        self.catalog.register(name, table);
    }

    /// Access the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Use a custom optimizer configuration (fresh engine, empty cache).
    pub fn with_optimizer(mut self, optimizer: Optimizer) -> Self {
        self.engine = Engine::with_optimizer(optimizer);
        self
    }

    /// Use an existing engine. The engine is cheaply clonable shared
    /// state, so sessions constructed from clones of the same engine
    /// share one score-matrix cache — this is how the query server
    /// gives every connection the same warm tiers.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The session's query engine (shared matrix cache + stats).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Append one row to a registered table **in place**. Unlike
    /// re-registering a rebuilt table, this keeps the relation's
    /// mutation [`Delta`](pref_relation::Delta) intact, so the next
    /// query over the table first *maintains* its cached BMO result
    /// against the appended row (`CacheStatus::MaintainedHit`); `BUT
    /// ONLY` then reads the values of the result rows and builds no
    /// matrix; a `GROUP BY` statement is its term `A↔ & P`, maintained
    /// the same way. Only the operators that read the score matrix
    /// directly — `TOP`, and a parameterized `WHERE` keeping the table's
    /// matrix warm for its windows — rebuild it, and incrementally: the
    /// appended row is the only one encoded (`CacheStatus::ShardHit`).
    pub fn append_row(&mut self, table: &str, values: Vec<Value>) -> Result<(), SqlError> {
        self.catalog.get_mut(table)?.push_values(values)?;
        Ok(())
    }

    /// Parse and execute a query string.
    pub fn execute(&self, sql: &str) -> Result<QueryResult, SqlError> {
        self.run(&parse(sql)?)
    }

    /// Parse and run a `DELETE FROM <table> [WHERE <hard>]` statement
    /// **in place**, returning how many rows were removed. Deletions
    /// tombstone the relation's row-id view in one mutation
    /// ([`pref_relation::Relation::delete_rows`]): storage is untouched
    /// and the mutation delta records one base and every victim, so the
    /// engine can *maintain* a cached BMO result across the delete — removing
    /// non-members leaves the previous result servable
    /// (`CacheStatus::MaintainedHit`); removing a member forces the
    /// recompute that re-promotes whatever it was dominating.
    pub fn delete(&mut self, sql: &str) -> Result<usize, SqlError> {
        match parse_statement(sql)? {
            Statement::Delete(d) => self.run_delete(&d),
            Statement::Query(_) => Err(SqlError::Parse {
                pos: 0,
                expected: "DELETE FROM …".to_string(),
                found: "a SELECT statement (use `execute`)".to_string(),
            }),
        }
    }

    /// Run a parsed [`DeleteStmt`].
    pub fn run_delete(&mut self, d: &DeleteStmt) -> Result<usize, SqlError> {
        let table = self.catalog.get_mut(&d.table)?;
        let victims: Vec<usize> = match &d.hard {
            Some(h) => {
                let pred = hard_to_predicate(h, table.schema(), &d.table)?;
                (0..table.len()).filter(|&i| pred(table.row(i))).collect()
            }
            None => (0..table.len()).collect(),
        };
        table.delete_rows(&victims);
        Ok(victims.len())
    }

    /// Parse a statement once into a [`PreparedStatement`]. Literal
    /// positions may hold `$n` placeholders (1-based), bound at
    /// [`PreparedStatement::execute`] time:
    ///
    /// ```
    /// use pref_sql::PrefSql;
    /// use pref_relation::{rel, Value};
    ///
    /// let mut db = PrefSql::new();
    /// db.register("car", rel! {
    ///     ("make": Str, "price": Int);
    ///     ("Opel", 38_000), ("BMW", 45_000), ("Opel", 44_000),
    /// });
    /// let stmt = db.prepare("SELECT * FROM car PREFERRING price AROUND $1").unwrap();
    /// for target in [40_000i64, 45_000] {
    ///     let res = stmt.execute(&db, &[Value::from(target)]).unwrap();
    ///     assert_eq!(res.relation.len(), 1);
    /// }
    /// ```
    ///
    /// The statement is compiled against its table **now**: without a
    /// `$n` in its preference clauses, the AST→term rewriter and
    /// [`Engine::prepare`] run once here and every execution borrows the
    /// prepared query; with one, each execution substitutes its values
    /// into the clauses and rewrites and prepares the concrete term it
    /// gets — the very term the inline-literal spelling gives. Neither
    /// re-lexes nor re-parses. Re-registering the table with an
    /// *identical* schema keeps the compiled statement; a different
    /// schema (or a table unknown at prepare time) compiles it lazily —
    /// once per schema change, not once per execution.
    ///
    /// Placeholder numbering must be gapless from `$1`: an index the
    /// statement never reads ([`SqlError::UnusedParam`]) would make
    /// every binding silently ignore a value.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement, SqlError> {
        let query = parse(sql)?;
        let slots = query.param_slots();
        let param_count = slots.last().copied().unwrap_or(0);
        for n in 1..=param_count {
            if slots.binary_search(&n).is_err() {
                return Err(SqlError::UnusedParam { index: n });
            }
        }
        let compiled = (self.catalog.get(&query.table).ok())
            .map(|table| Arc::new(CompiledStatement::compile(&self.engine, &query, table)));
        Ok(PreparedStatement {
            query,
            param_count,
            compiled: Arc::new(Mutex::new(compiled)),
        })
    }

    /// Execute a parsed query: compile it against its table's schema,
    /// then run it with nothing to bind.
    pub fn run(&self, q: &Query) -> Result<QueryResult, SqlError> {
        let table = self.catalog.get(&q.table)?;
        let compiled = CompiledStatement::compile(&self.engine, q, table);
        self.run_compiled(q, &compiled, table, &[])
    }

    /// The one statement pipeline: `q`, compiled as `c` against `table`'s
    /// schema, bound to `params`.
    fn run_compiled(
        &self,
        q: &Query,
        c: &CompiledStatement,
        table: &Relation,
        params: &[Value],
    ) -> Result<QueryResult, SqlError> {
        let top = resolve_limit(&q.top, params)?;
        let limit = resolve_limit(&q.limit, params)?;

        // 1. Hard selection (exact-match world). Parameterized
        //    conditions bind their `$n` literals here — a per-binding
        //    map over the WHERE tree only, never the whole statement.
        let bound_hard = match &q.hard {
            Some(h) if !params.is_empty() => {
                Some(h.map_literals(&mut |lit| bind_literal(lit, params))?)
            }
            _ => None,
        };
        let hard = bound_hard.as_ref().or(q.hard.as_ref());
        let (base, pushed) = candidates(table, hard, &q.table)?;
        let base = base.as_ref();
        let candidates = base.len();

        // 2. The preference stage: the statement's one prepared query
        //    (with GROUP BY, of `A↔ & P`), compiled once — or, with `$n`
        //    in the preference clauses, rewritten and prepared from the
        //    bound AST now.
        let stage = c.pref.as_ref().map_err(Clone::clone)?.as_ref();
        let bound = (stage.map(|s| s.bind(&self.engine, q, table.schema(), params))).transpose()?;
        if q.explain {
            return self.explain(q, base, candidates, pushed, bound);
        }

        let (rows, explain) = match (stage, &bound) {
            (Some(stage), Some((_, exec))) => {
                let (rows, mut explain) = match top {
                    // §6.2 k-best: the BMO layers, peeled until k rows —
                    // with GROUP BY those of `A↔ & P` (Def. 16), so rows
                    // rank by their level within their group.
                    Some(k) => exec.k_best(base, k)?,
                    None => {
                        if c.hard_is_parameterized && stage.binding_recurs(exec) {
                            let _ = exec.matrix(table);
                        }
                        exec.execute(base)?.into_parts()
                    }
                };
                if let Some(fp) = stage.shape_fingerprint() {
                    explain.shape_fingerprint = Some(fp);
                    explain.binding = Some(params.to_vec());
                }
                (rows, Some(explain))
            }
            _ => ((0..base.len()).collect::<Vec<_>>(), None),
        };

        // 3. BUT ONLY quality supervision: LEVEL/DISTANCE of each
        //    surviving row's values.
        let rows = match (&bound, q.but_only.is_empty()) {
            (Some((pref, _)), false) => {
                let filter = quality_to_filter(&q.but_only, base.schema(), &q.table, params)?;
                filter.filter_rows(pref, base, &rows)?
            }
            _ => rows,
        };

        // 4. LIMIT.
        let rows: Vec<usize> = match limit {
            Some(k) => rows.into_iter().take(k).collect(),
            None => rows,
        };

        // 5. Projection.
        let result = base.take_rows(&rows);
        let relation = match &q.select {
            SelectList::Star => result,
            SelectList::Columns(cols) => {
                let attrs = AttrSet::new(cols.iter().map(String::as_str));
                for a in attrs.iter() {
                    if result.schema().index_of(a).is_none() {
                        return Err(SqlError::UnknownColumn {
                            table: q.table.clone(),
                            column: a.to_string(),
                        });
                    }
                }
                result.project(&attrs)?
            }
        };

        Ok(QueryResult {
            relation,
            preference: bound.map(|(pref, _)| pref),
            explain,
            candidates,
        })
    }

    /// `EXPLAIN SELECT …`: plan without running the BMO stage. Returns a
    /// one-column relation of plan lines.
    fn explain(
        &self,
        q: &Query,
        base: &Relation,
        candidates: usize,
        pushed: bool,
        bound: Option<(Pref, Cow<'_, Prepared>)>,
    ) -> Result<QueryResult, SqlError> {
        let mut lines: Vec<String> = vec![format!(
            "scan       : {} ({} candidate rows after WHERE)",
            q.table, candidates
        )];
        if pushed {
            lines.push(
                "pushdown   : WHERE commutes with σ[P] (every WHERE attribute is \
                 CONSTANT-constrained) — winnow runs on the base table"
                    .to_string(),
            );
        }
        let explain = match &bound {
            None => {
                lines.push("preference : none (exact-match query)".to_string());
                None
            }
            Some((_, exec)) => {
                let plan = exec.explain(base);
                lines.extend(plan.lines());
                Some(plan)
            }
        };
        // Post-BMO stages must appear in the plan exactly as — and in
        // the order — query() executes them: TOP relaxes the BMO result
        // first, BUT ONLY then filters the relaxed set, LIMIT truncates
        // last. A missing or misplaced line is a lying plan.
        if let Some(k) = &q.top {
            lines.push(format!(
                "top        : k-best relaxation to {k} row(s) (§6.2)"
            ));
        }
        if !q.but_only.is_empty() {
            lines.push(format!(
                "but only   : {} quality constraint(s) post-filter",
                q.but_only.len()
            ));
        }
        if let Some(k) = &q.limit {
            lines.push(format!("limit      : first {k} row(s) of the BMO result"));
        }

        let schema = Schema::new(vec![("plan", DataType::Str)])?;
        let mut relation = Relation::empty(schema);
        for l in lines {
            relation.push_values(vec![Value::from(l)])?;
        }
        Ok(QueryResult {
            relation,
            preference: bound.map(|(pref, _)| pref),
            explain,
            candidates,
        })
    }
}

/// A parsed Preference SQL statement with `$n` parameter placeholders —
/// the lexer and parser run once per statement, and so do the AST→term
/// rewriter and engine compiler for a statement whose preference clauses
/// hold no `$n`. Each [`PreparedStatement::execute`] validates the
/// parameter values, substitutes them into the AST, runs through the
/// session's engine, and therefore shares the score-matrix cache: the
/// same binding over an unchanged table hits exactly (the entry the
/// inline-literal spelling uses too), a fresh WHERE binding windows onto
/// the warmed table matrix, and `QueryResult::explain` reports the
/// statement's fingerprint plus the binding.
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    query: Query,
    param_count: usize,
    /// The statement compiled against the schema its table had when last
    /// looked at (`None` until the table is registered). Compiled at
    /// most once per schema change, then reused by every execution.
    compiled: Arc<Mutex<Option<Arc<CompiledStatement>>>>,
}

impl PreparedStatement {
    /// Number of `$n` parameters this statement expects (the highest
    /// placeholder index).
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The parsed query (placeholders still in place).
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Is the statement compiled against its table — the preference term
    /// built and the engine query prepared (with `$n` in the preference
    /// clauses: the clauses kept for per-execution binding)? True from
    /// [`PrefSql::prepare`] on when the table was registered by then,
    /// otherwise from the first execution that finds it.
    pub fn is_precompiled(&self) -> bool {
        self.compiled.lock().is_some()
    }

    /// Bind `params` ($1 = `params[0]`, …) and run the statement on
    /// `db`. The parameter count must match exactly; unusable values —
    /// NULL, non-finite floats, types the preference column rejects —
    /// surface as [`SqlError::BadParam`] naming the parameter.
    pub fn execute(&self, db: &PrefSql, params: &[Value]) -> Result<QueryResult, SqlError> {
        check_params(self.param_count, params)?;
        let table = db.catalog.get(&self.query.table)?;
        // The compiled statement is only valid against the schema it was
        // built for: keep it while the table's *current* schema still
        // matches, compile afresh (and keep that) when it does not.
        let compiled = {
            let mut cell = self.compiled.lock();
            match cell.as_ref() {
                Some(c) if c.schema.same_as(table.schema()) => Arc::clone(c),
                _ => {
                    let c = CompiledStatement::compile(&db.engine, &self.query, table);
                    Arc::clone(cell.insert(Arc::new(c)))
                }
            }
        };
        db.run_compiled(&self.query, &compiled, table, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::PrefStage;
    use pref_relation::{rel, Value};

    fn session() -> PrefSql {
        let mut s = PrefSql::new();
        s.register(
            "car",
            rel! {
                ("make": Str, "category": Str, "color": Str, "price": Int,
                 "power": Int, "mileage": Int);
                ("Opel", "roadster", "red", 38_000, 120, 20_000),
                ("Opel", "sedan", "red", 41_000, 110, 60_000),
                ("Opel", "passenger", "blue", 40_000, 150, 30_000),
                ("BMW", "roadster", "black", 45_000, 190, 10_000),
                ("Opel", "van", "gray", 39_500, 90, 80_000),
            },
        );
        s
    }

    #[test]
    fn paper_car_query_end_to_end() {
        let s = session();
        let res = s
            .execute(
                "SELECT * FROM car WHERE make = 'Opel' \
                 PREFERRING (category = 'roadster' ELSE category <> 'passenger' AND \
                 price AROUND 40000 AND HIGHEST(power)) \
                 CASCADE color = 'red' CASCADE LOWEST(mileage);",
            )
            .unwrap();
        // BMW is filtered by the hard constraint.
        assert_eq!(res.candidates, 4);
        assert!(!res.relation.is_empty());
        for t in res.relation.iter() {
            assert_eq!(t[0], Value::from("Opel"));
        }
        // Every Opel trades off category level vs. price distance vs.
        // power differently, so the Pareto clause leaves them unranked —
        // and CASCADE (prioritised accumulation, Def. 9) only refines
        // *ties* of the more important preference, of which there are
        // none here. All four are best matches.
        assert_eq!(res.relation.len(), 4);
        assert!(res.relation.iter().any(|t| t[1] == Value::from("roadster")));
        assert!(res.explain.is_some());
    }

    #[test]
    fn cascade_refines_ties_of_the_outer_preference() {
        let mut s = PrefSql::new();
        s.register(
            "car",
            rel! {
                ("category": Str, "color": Str);
                ("roadster", "red"),
                ("roadster", "blue"),
                ("sedan", "red"),
            },
        );
        let res = s
            .execute("SELECT * FROM car PREFERRING category = 'roadster' CASCADE color = 'red'")
            .unwrap();
        // Both roadsters beat the sedan; between the equal-category
        // roadsters, CASCADE picks the red one.
        assert_eq!(res.relation.len(), 1);
        assert_eq!(res.relation.row(0)[1], Value::from("red"));
    }

    #[test]
    fn empty_result_problem_is_solved() {
        // No Opel cabriolet exists; hard SQL would return nothing, the
        // preference query relaxes to the best available.
        let s = session();
        let hard = s
            .execute("SELECT * FROM car WHERE make = 'Opel' AND category = 'cabriolet'")
            .unwrap();
        assert!(hard.relation.is_empty());

        let soft = s
            .execute("SELECT * FROM car WHERE make = 'Opel' PREFERRING category = 'cabriolet'")
            .unwrap();
        assert!(!soft.relation.is_empty());
        assert_eq!(soft.relation.len(), 4); // all Opels equally non-matching
    }

    #[test]
    fn pure_hard_query_without_preferring() {
        let s = session();
        let res = s
            .execute("SELECT make, price FROM car WHERE price < 40000")
            .unwrap();
        assert_eq!(res.relation.len(), 2);
        assert_eq!(res.relation.schema().arity(), 2);
        assert!(res.preference.is_none());
    }

    #[test]
    fn group_by_preference() {
        // Example 10 as SQL.
        let mut s = PrefSql::new();
        s.register(
            "cars",
            rel! {
                ("make": Str, "price": Int, "oid": Int);
                ("Audi", 40_000, 1), ("BMW", 35_000, 2),
                ("VW", 20_000, 3), ("BMW", 50_000, 4),
            },
        );
        let res = s
            .execute("SELECT * FROM cars PREFERRING price AROUND 40000 GROUP BY make")
            .unwrap();
        let oids: Vec<i64> = res
            .relation
            .iter()
            .map(|t| t[2].as_int().unwrap())
            .collect();
        assert_eq!(oids, vec![1, 2, 3]);
    }

    #[test]
    fn but_only_trips_query() {
        let mut s = PrefSql::new();
        s.register(
            "trips",
            rel! {
                ("start_date": Date, "duration": Int);
                (pref_relation::Date::parse("2001/11/23").unwrap(), 14),
                (pref_relation::Date::parse("2001/11/26").unwrap(), 14),
                (pref_relation::Date::parse("2001/11/24").unwrap(), 15),
            },
        );
        let res = s
            .execute(
                "SELECT * FROM trips \
                 PREFERRING start_date AROUND '2001/11/23' AND duration AROUND 14 \
                 BUT ONLY DISTANCE(start_date) <= 2 AND DISTANCE(duration) <= 2",
            )
            .unwrap();
        // Row 1 is maximal on duration but 3 days off — BUT ONLY drops it
        // if it were in the BMO result; the perfect row 0 dominates row 2.
        assert_eq!(res.relation.len(), 1);
        assert_eq!(res.relation.row(0)[1], Value::from(14));
    }

    #[test]
    fn limit_cuts_results() {
        let s = session();
        let res = s
            .execute("SELECT * FROM car PREFERRING LOWEST(price) LIMIT 1")
            .unwrap();
        assert_eq!(res.relation.len(), 1);
    }

    #[test]
    fn top_k_goes_beyond_bmo() {
        // LOWEST(price) has a single best match; LIMIT cannot return
        // more, but TOP k walks down the quality levels (§6.2).
        let s = session();
        let bmo = s
            .execute("SELECT * FROM car PREFERRING LOWEST(price) LIMIT 3")
            .unwrap();
        assert_eq!(bmo.relation.len(), 1);
        let top = s
            .execute("SELECT TOP 3 * FROM car PREFERRING LOWEST(price)")
            .unwrap();
        assert_eq!(top.relation.len(), 3);
        let prices: Vec<i64> = top
            .relation
            .iter()
            .map(|t| t[3].as_int().unwrap())
            .collect();
        assert_eq!(prices, vec![38_000, 39_500, 40_000]);
        // TOP with more rows than exist returns everything.
        let all = s
            .execute("SELECT TOP 99 * FROM car PREFERRING LOWEST(price)")
            .unwrap();
        assert_eq!(all.relation.len(), 5);
    }

    #[test]
    fn but_only_after_an_append_serves_the_maintained_result() {
        let mut s = session();
        let sql = "SELECT * FROM car PREFERRING price AROUND 40000 AND LOWEST(mileage) \
                   BUT ONLY DISTANCE(price) <= 1000";
        s.execute(sql).unwrap();
        // A new best match inside the bound: the maintained result grows.
        let vw = ["VW", "van", "white"].map(Value::from);
        let vw = vw.into_iter().chain([40_500, 100, 25_000].map(Value::from));
        s.append_row("car", vw.collect()).unwrap();
        let before = s.engine().cache_stats();
        let res = s.execute(sql).unwrap();
        assert_eq!(
            res.explain.expect("BMO stage ran").cache,
            pref_query::CacheStatus::MaintainedHit
        );
        let after = s.engine().cache_stats();
        assert_eq!(
            (after.shard_hits, after.misses, after.entries),
            (before.shard_hits, before.misses, before.entries),
            "BUT ONLY reads values: no matrix is rebuilt after the append"
        );
        // The answer a fresh session gives over the same rows.
        let mut fresh = PrefSql::new();
        fresh.register("car", s.catalog().get("car").unwrap().clone());
        let expected = fresh.execute(sql).unwrap().relation;
        assert_eq!(res.relation.to_string(), expected.to_string());
        assert_eq!(res.relation.len(), 2);
    }

    #[test]
    fn errors_surface() {
        let s = session();
        assert!(matches!(
            s.execute("SELECT * FROM nope"),
            Err(SqlError::UnknownTable(_))
        ));
        assert!(matches!(
            s.execute("SELECT nope FROM car"),
            Err(SqlError::UnknownColumn { .. })
        ));
        assert!(matches!(
            s.execute("SELECT * FROM car PREFERRING"),
            Err(SqlError::Parse { .. })
        ));
        assert!(matches!(
            s.execute("SELECT * FROM car PREFERRING price AROUND 1 GROUP BY nope"),
            Err(SqlError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn explain_plans_without_executing() {
        let s = session();
        let res = s
            .execute(
                "EXPLAIN SELECT * FROM car WHERE make = 'Opel' \
                      PREFERRING LOWEST(price) AND HIGHEST(power)",
            )
            .unwrap();
        let lines: Vec<&str> = res
            .relation
            .iter()
            .map(|t| t[0].as_str().unwrap())
            .collect();
        assert!(lines[0].contains("4 candidate rows"));
        assert!(lines.iter().any(|l| l.contains("divide-and-conquer")));
        // A grouped plan is the plan of its term `A↔ & P` (Def. 16).
        let res = s
            .execute("EXPLAIN SELECT * FROM car PREFERRING price AROUND 40000 GROUP BY make")
            .unwrap();
        let text = format!("{}", res.relation);
        assert!(
            text.contains("preference : ({make}↔ & AROUND(price; 40000))"),
            "{text}"
        );
        assert!(
            text.contains("anti-chain head: Prop. 10 head split"),
            "{text}"
        );
    }

    #[test]
    fn constant_where_pushes_down_past_the_winnow() {
        use pref_relation::{attr, Constraint};
        let schema = Schema::new(vec![("cat", DataType::Str), ("price", DataType::Int)])
            .unwrap()
            .with_constraint(Constraint::Constant { attr: attr("cat") })
            .unwrap();
        let mut t = Relation::empty(schema);
        for (c, p) in [("used", 10), ("used", 20), ("used", 30)] {
            t.push_values(vec![Value::from(c), Value::from(p)]).unwrap();
        }
        let mut s = PrefSql::new();
        s.register("car", t);

        // Uniformly-true predicate: the winnow runs on the base table
        // itself (commutation licensed by CONSTANT(cat)).
        let res = s
            .execute("SELECT * FROM car WHERE cat = 'used' PREFERRING LOWEST(price)")
            .unwrap();
        assert_eq!(res.candidates, 3);
        assert_eq!(res.relation.len(), 1);
        assert_eq!(res.relation.row(0)[1], Value::from(10));

        // Uniformly-false predicate: σ_C(R) is empty, nothing to winnow.
        let res = s
            .execute("SELECT * FROM car WHERE cat = 'new' PREFERRING LOWEST(price)")
            .unwrap();
        assert_eq!(res.candidates, 0);
        assert!(res.relation.is_empty());

        // The plan reports the rewrite.
        let res = s
            .execute("EXPLAIN SELECT * FROM car WHERE cat = 'used' PREFERRING LOWEST(price)")
            .unwrap();
        assert!(res.relation.to_string().contains("pushdown"));
    }

    #[test]
    fn pushdown_stays_right_because_constant_is_enforced() {
        use pref_relation::{attr, Constraint, RelationError};
        let schema = Schema::new(vec![("cat", DataType::Str), ("price", DataType::Int)])
            .unwrap()
            .with_constraint(Constraint::Constant { attr: attr("cat") })
            .unwrap();
        let mut t = Relation::empty(schema);
        for p in [10, 20, 30] {
            t.push_values(vec![Value::from("used"), Value::from(p)])
                .unwrap();
        }
        let mut s = PrefSql::new();
        s.register("car", t);
        let generation = s.catalog().get("car").unwrap().generation();

        // The pushdown probes one row and winnows the whole table, so a
        // ('new', 5) row in it would be answered under `cat = 'used'`.
        let err = s
            .append_row("car", vec![Value::from("new"), Value::from(5)])
            .unwrap_err();
        assert!(matches!(
            err,
            SqlError::Relation(RelationError::ConstraintViolation { .. })
        ));
        let car = s.catalog().get("car").unwrap();
        assert_eq!((car.len(), car.generation()), (3, generation));
        let res = s
            .execute("SELECT * FROM car WHERE cat = 'used' PREFERRING LOWEST(price)")
            .unwrap();
        assert_eq!(
            res.relation.to_string(),
            "(cat: Str, price: Int)\n  ('used', 10)\n"
        );
    }

    #[test]
    fn prepared_statement_binds_and_reexecutes() {
        let s = session();
        let stmt = s
            .prepare(
                "SELECT * FROM car WHERE make = $1 \
                 PREFERRING price AROUND $2 AND HIGHEST(power)",
            )
            .unwrap();
        assert_eq!(stmt.param_count(), 2);

        let res = stmt
            .execute(&s, &[Value::from("Opel"), Value::from(40_000)])
            .unwrap();
        assert_eq!(res.candidates, 4);
        assert!(!res.relation.is_empty());
        // Same statement, new binding — no re-parse, different result set.
        let res = stmt
            .execute(&s, &[Value::from("BMW"), Value::from(45_000)])
            .unwrap();
        assert_eq!(res.candidates, 1);
        assert_eq!(res.relation.row(0)[0], Value::from("BMW"));
    }

    #[test]
    fn repeated_prepared_queries_hit_the_matrix_cache() {
        let s = session();
        // No WHERE clause: the pipeline runs on the catalog table itself,
        // so its generation is stable across executions.
        let stmt = s
            .prepare("SELECT * FROM car PREFERRING price AROUND 40000 AND LOWEST(mileage)")
            .unwrap();
        let first = stmt.execute(&s, &[]).unwrap();
        let ex = first.explain.expect("BMO stage ran");
        assert!(ex.materialized);
        assert_eq!(ex.cache, pref_query::CacheStatus::Miss);

        let second = stmt.execute(&s, &[]).unwrap();
        let ex2 = second.explain.expect("BMO stage ran");
        assert_eq!(
            ex2.cache,
            pref_query::CacheStatus::Hit,
            "same statement over unchanged table must hit the cache"
        );
        assert_eq!(ex.generation, ex2.generation);
        assert_eq!(
            format!("{}", first.relation),
            format!("{}", second.relation)
        );
        assert!(s.engine().cache_stats().hits >= 1);
    }

    #[test]
    fn param_binding_errors() {
        let s = session();
        let stmt = s
            .prepare("SELECT * FROM car PREFERRING price AROUND $1")
            .unwrap();
        assert_eq!(stmt.param_count(), 1);

        // Wrong arity, both directions.
        assert!(matches!(
            stmt.execute(&s, &[]),
            Err(SqlError::ParamCount {
                expected: 1,
                got: 0
            })
        ));
        assert!(matches!(
            stmt.execute(&s, &[Value::from(1), Value::from(2)]),
            Err(SqlError::ParamCount {
                expected: 1,
                got: 2
            })
        ));

        // NULL cannot stand in for a literal.
        assert!(matches!(
            stmt.execute(&s, &[Value::Null]),
            Err(SqlError::BadParam { index: 1, .. })
        ));

        // Type mismatches are parameter errors naming the slot.
        assert!(matches!(
            stmt.execute(&s, &[Value::from("cheap")]),
            Err(SqlError::BadParam { index: 1, .. })
        ));

        // Non-finite floats are rejected at bind time: they would poison
        // WHERE comparisons and the NaN-filtered dominance-key path.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                stmt.execute(&s, &[Value::from(v)]),
                Err(SqlError::BadParam { index: 1, .. })
            ));
        }

        // Direct execution of parameterized SQL leaves $1 unbound.
        assert!(matches!(
            s.execute("SELECT * FROM car PREFERRING price AROUND $1"),
            Err(SqlError::UnboundParam { index: 1 })
        ));

        // $0 is rejected by the lexer.
        assert!(matches!(
            s.prepare("SELECT * FROM car PREFERRING price AROUND $0"),
            Err(SqlError::Lex { .. })
        ));
    }

    #[test]
    fn repeated_where_queries_hit_the_derived_cache() {
        let s = session();
        let sql = "SELECT * FROM car WHERE make = 'Opel' \
                   PREFERRING price AROUND 40000 AND LOWEST(mileage)";
        let first = s.execute(sql).unwrap();
        let ex1 = first.explain.expect("BMO stage ran");
        assert!(ex1.materialized);
        assert_eq!(ex1.cache, pref_query::CacheStatus::Miss);
        let lineage = ex1.lineage.expect("WHERE produces a derived view");

        // Same statement again: a fresh derivation (new generation), but
        // the engine recognizes the lineage and serves the matrix warm.
        let second = s.execute(sql).unwrap();
        let ex2 = second.explain.expect("BMO stage ran");
        assert_eq!(
            ex2.cache,
            pref_query::CacheStatus::DerivedHit,
            "repeated WHERE over an unchanged table must not rebuild"
        );
        assert_ne!(ex1.generation, ex2.generation, "derivations are fresh");
        assert_eq!(ex2.lineage, Some(lineage));
        assert_eq!(
            format!("{}", first.relation),
            format!("{}", second.relation)
        );
        assert!(s.engine().cache_stats().derived_hits >= 1);

        // A different WHERE clause is a different subset: its first
        // execution must rebuild, not reuse the other predicate's matrix.
        let other = s
            .execute(
                "SELECT * FROM car WHERE make = 'BMW' \
                 PREFERRING price AROUND 40000 AND LOWEST(mileage)",
            )
            .unwrap();
        let ex3 = other.explain.expect("BMO stage ran");
        assert_eq!(ex3.cache, pref_query::CacheStatus::Miss);
        assert_ne!(ex3.lineage, Some(lineage));
        assert_eq!(other.candidates, 1);
    }

    #[test]
    fn first_time_where_windows_onto_a_warmed_table() {
        let s = session();
        // Warm the whole-table matrix with a no-WHERE statement.
        let warm = s
            .execute("SELECT * FROM car PREFERRING price AROUND 40000 AND LOWEST(mileage)")
            .unwrap();
        assert_eq!(warm.explain.unwrap().cache, pref_query::CacheStatus::Miss);

        // A WHERE clause this session has *never seen*: its candidate
        // set is a fresh row-id view, and the engine windows the cached
        // table matrix onto it — warm on first execution.
        let res = s
            .execute(
                "SELECT * FROM car WHERE make = 'Opel' \
                 PREFERRING price AROUND 40000 AND LOWEST(mileage)",
            )
            .unwrap();
        let ex = res.explain.expect("BMO stage ran");
        assert_eq!(
            ex.cache,
            pref_query::CacheStatus::WindowHit,
            "fresh WHERE over a warmed table must window, not rebuild"
        );
        assert_eq!(res.candidates, 4);
        assert!(s.engine().cache_stats().window_hits >= 1);

        // And a different fresh WHERE clause stays warm too.
        let res = s
            .execute(
                "SELECT * FROM car WHERE price < 42000 \
                 PREFERRING price AROUND 40000 AND LOWEST(mileage)",
            )
            .unwrap();
        assert_eq!(
            res.explain.unwrap().cache,
            pref_query::CacheStatus::WindowHit
        );
    }

    #[test]
    fn query_results_share_catalog_storage() {
        // The SELECT-* pipeline materializes no tuples: WHERE emits a
        // row-id view of the table, and the final result is a row-id
        // view again.
        let s = session();
        let res = s
            .execute("SELECT * FROM car WHERE make = 'Opel' PREFERRING LOWEST(price)")
            .unwrap();
        let table = s.catalog().get("car").unwrap();
        assert!(res.relation.shares_storage_with(table));
        assert!(res.relation.row_ids().is_some());
    }

    #[test]
    fn mutation_invalidates_derived_entries() {
        let mut s = session();
        let sql = "SELECT * FROM car WHERE make = 'Opel' \
                   PREFERRING price AROUND 1 AND LOWEST(mileage)";
        s.execute(sql).unwrap();
        assert_eq!(
            s.execute(sql).unwrap().explain.unwrap().cache,
            pref_query::CacheStatus::DerivedHit
        );

        // Re-register with an extra dominating row: the base generation
        // moves, so the old lineage key is unreachable and the result is
        // computed fresh.
        let mut table = s.catalog().get("car").unwrap().clone();
        table
            .push_values(vec![
                Value::from("Opel"),
                Value::from("roadster"),
                Value::from("red"),
                Value::from(1),
                Value::from(999),
                Value::from(0),
            ])
            .unwrap();
        s.register("car", table);
        let res = s.execute(sql).unwrap();
        let ex = res.explain.unwrap();
        assert_eq!(ex.cache, pref_query::CacheStatus::Miss);
        assert_eq!(res.relation.len(), 1, "the new dominating row wins");
        assert_eq!(res.relation.row(0)[3], Value::from(1));
    }

    #[test]
    fn explain_reports_the_limit_stage() {
        let s = session();
        let sql_no_limit = "SELECT * FROM car PREFERRING LOWEST(price)";
        let plan = |sql: &str| {
            let res = s.execute(&format!("EXPLAIN {sql}")).unwrap();
            res.relation
                .iter()
                .map(|t| t[0].as_str().unwrap().to_string())
                .collect::<Vec<_>>()
        };

        // Plan/execution parity: a LIMIT in the query shows up as a plan
        // stage, and its absence leaves no such line.
        assert!(!plan(sql_no_limit).iter().any(|l| l.starts_with("limit")));
        let with_limit = plan("SELECT * FROM car PREFERRING LOWEST(price) LIMIT 1");
        assert!(
            with_limit
                .iter()
                .any(|l| l.starts_with("limit") && l.contains('1')),
            "plan must show the LIMIT stage query() executes: {with_limit:?}"
        );
        // And the executed query indeed truncates to the planned bound.
        let res = s
            .execute("SELECT * FROM car PREFERRING LOWEST(price) LIMIT 1")
            .unwrap();
        assert_eq!(res.relation.len(), 1);

        let with_top = plan("SELECT TOP 3 * FROM car PREFERRING LOWEST(price)");
        assert!(with_top
            .iter()
            .any(|l| l.starts_with("top") && l.contains('3')));

        // Stage *order* parity too: query() relaxes with TOP first, then
        // applies BUT ONLY, then LIMIT — the plan must read the same way.
        let ordered = plan(
            "SELECT TOP 3 * FROM car PREFERRING price AROUND 40000 \
             BUT ONLY DISTANCE(price) <= 5000 LIMIT 2",
        );
        let pos_of = |prefix: &str| {
            ordered
                .iter()
                .position(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("missing {prefix} stage in {ordered:?}"))
        };
        assert!(pos_of("top") < pos_of("but only"));
        assert!(pos_of("but only") < pos_of("limit"));
    }

    #[test]
    fn unparameterized_statements_precompile_at_prepare_time() {
        let s = session();
        let stmt = s
            .prepare("SELECT * FROM car PREFERRING price AROUND 40000 AND LOWEST(mileage)")
            .unwrap();
        assert!(stmt.is_precompiled(), "no $n params: term built once");
        let parameterized = s
            .prepare("SELECT * FROM car PREFERRING price AROUND $1")
            .unwrap();
        assert!(
            parameterized.is_precompiled(),
            "parameterized statements compile at prepare time"
        );

        // The precompiled path agrees with ad-hoc execution and shares
        // the matrix cache.
        let adhoc = s
            .execute("SELECT * FROM car PREFERRING price AROUND 40000 AND LOWEST(mileage)")
            .unwrap();
        let first = stmt.execute(&s, &[]).unwrap();
        assert_eq!(format!("{}", adhoc.relation), format!("{}", first.relation));
        assert_eq!(
            first.explain.unwrap().cache,
            pref_query::CacheStatus::Hit,
            "the ad-hoc execution already cached this matrix"
        );

        // Re-registering the table with a *different schema* falls back
        // to per-execution compilation instead of mis-resolving columns.
        let mut s = session();
        let stmt = s
            .prepare("SELECT * FROM car PREFERRING LOWEST(price)")
            .unwrap();
        assert!(stmt.is_precompiled());
        s.register(
            "car",
            rel! {
                ("extra": Str, "price": Int);
                ("a", 3), ("b", 1),
            },
        );
        let res = stmt.execute(&s, &[]).unwrap();
        assert_eq!(res.relation.len(), 1);
        assert_eq!(res.relation.row(0)[1], Value::from(1));
    }

    #[test]
    fn parameterized_executions_run_warm() {
        let s = session();
        let stmt = s
            .prepare(
                "SELECT * FROM car WHERE price <= $1 \
                 PREFERRING price AROUND $2 AND LOWEST(mileage)",
            )
            .unwrap();
        assert!(stmt.is_precompiled(), "compiled at prepare time");

        // The preference side is parameterized, so the very first
        // sighting of a preference binding builds its (subset) matrix;
        // from then on the executor keeps the table's whole-relation
        // matrix resident and every fresh WHERE binding windows onto it.
        let first = stmt
            .execute(&s, &[Value::from(45_000), Value::from(40_000)])
            .unwrap();
        assert_eq!(
            first.explain.unwrap().cache,
            pref_query::CacheStatus::Miss,
            "a never-seen preference binding builds once"
        );
        let mut shape_fp = None;
        for (cap, target) in [(45_000i64, 40_000i64), (41_000, 40_000), (39_000, 40_000)] {
            let res = stmt
                .execute(&s, &[Value::from(cap), Value::from(target)])
                .unwrap();
            let ex = res.explain.expect("BMO stage ran");
            assert!(
                ex.cache.is_warm(),
                "binding ({cap}, {target}) must run warm, got {ex}"
            );
            // The statement fingerprint is stable across bindings; the
            // binding itself is reported.
            let fp = ex
                .shape_fingerprint
                .expect("a bound execution reports itself");
            assert_eq!(*shape_fp.get_or_insert(fp), fp);
            assert_eq!(
                ex.binding.as_deref(),
                Some(&[Value::from(cap), Value::from(target)][..])
            );
            // Results agree with ad-hoc execution of the bound SQL.
            let adhoc = s
                .execute(&format!(
                    "SELECT * FROM car WHERE price <= {cap} \
                     PREFERRING price AROUND {target} AND LOWEST(mileage)"
                ))
                .unwrap();
            assert_eq!(
                format!("{}", res.relation),
                format!("{}", adhoc.relation),
                "prepare+bind must agree with fresh parse/execute"
            );
        }

        // A repeated preference binding re-uses its matrix outright, and
        // the fresh WHERE bindings above resolved via the window tier.
        let repeat = stmt
            .execute(&s, &[Value::from(45_000), Value::from(40_000)])
            .unwrap();
        assert!(repeat.explain.unwrap().cache.is_warm());
        assert!(s.engine().cache_stats().window_hits >= 2);

        // A statement whose *preference* is concrete (only WHERE-side
        // params) warms from the very first execution: the table matrix
        // fingerprint is stable, so it is kept resident outright.
        let s2 = session();
        let where_only = s2
            .prepare(
                "SELECT * FROM car WHERE price <= $1 \
                 PREFERRING price AROUND 40000 AND LOWEST(mileage)",
            )
            .unwrap();
        for cap in [45_000i64, 41_000, 39_000] {
            let res = where_only.execute(&s2, &[Value::from(cap)]).unwrap();
            assert_eq!(
                res.explain.unwrap().cache,
                pref_query::CacheStatus::WindowHit,
                "WHERE-only bindings must window from execution #1"
            );
        }
    }

    #[test]
    fn gapped_parameter_numbering_is_rejected_at_prepare() {
        let s = session();
        // $1 and $3 with no $2: a binding would silently drop a value.
        assert!(matches!(
            s.prepare("SELECT * FROM car WHERE price <= $1 PREFERRING price AROUND $3"),
            Err(SqlError::UnusedParam { index: 2 })
        ));
        assert!(matches!(
            s.prepare("SELECT * FROM car PREFERRING price AROUND $2"),
            Err(SqlError::UnusedParam { index: 1 })
        ));
        // Gapless numbering (in any clause, including LIMIT) is fine, and
        // re-using a slot does not count as a gap.
        let stmt = s
            .prepare("SELECT * FROM car PREFERRING price BETWEEN $1 AND $2 LIMIT $3")
            .unwrap();
        assert_eq!(stmt.param_count(), 3);
        let stmt = s
            .prepare("SELECT * FROM car WHERE price >= $1 PREFERRING price AROUND $1")
            .unwrap();
        assert_eq!(stmt.param_count(), 1);
    }

    #[test]
    fn date_params_bind_typed_end_to_end() {
        let mut s = PrefSql::new();
        let day = |d: &str| pref_relation::Date::parse(d).unwrap();
        s.register(
            "trips",
            rel! {
                ("start_date": Date, "duration": Int);
                (day("2001/11/23"), 14),
                (day("2001/11/26"), 14),
                (day("2001/12/24"), 7),
            },
        );
        let stmt = s
            .prepare("SELECT * FROM trips WHERE start_date <= $1 PREFERRING start_date AROUND $2")
            .unwrap();
        assert!(stmt.is_precompiled());

        // A typed Date value binds directly — no string round-trip.
        let res = stmt
            .execute(
                &s,
                &[
                    Value::from(day("2001/12/01")),
                    Value::from(day("2001/11/25")),
                ],
            )
            .unwrap();
        assert_eq!(res.candidates, 2);
        assert_eq!(res.relation.len(), 1);
        assert_eq!(res.relation.row(0)[0], Value::from(day("2001/11/26")));

        // Strings still coerce, exactly like inline literals.
        let res = stmt
            .execute(&s, &[Value::from("2001/12/31"), Value::from("2001/11/22")])
            .unwrap();
        assert_eq!(res.relation.row(0)[0], Value::from(day("2001/11/23")));

        // A value that fits no date slot is a parameter error naming it.
        assert!(matches!(
            stmt.execute(&s, &[Value::from("2001/12/31"), Value::from(2)]),
            Err(SqlError::BadParam { index: 2, .. })
        ));
        // WHERE-side coercion failures go through the literal machinery,
        // exactly like inline literals.
        assert!(matches!(
            stmt.execute(&s, &[Value::from(1), Value::from(day("2001/11/25"))]),
            Err(SqlError::BadLiteral { .. })
        ));
    }

    #[test]
    fn limit_and_top_take_params() {
        let s = session();
        let stmt = s
            .prepare("SELECT * FROM car PREFERRING LOWEST(price) LIMIT $1")
            .unwrap();
        assert!(stmt.is_precompiled());
        assert_eq!(
            stmt.execute(&s, &[Value::from(1)]).unwrap().relation.len(),
            1
        );

        let stmt = s
            .prepare("SELECT TOP $1 * FROM car PREFERRING LOWEST(price)")
            .unwrap();
        for k in [1i64, 3, 5] {
            let res = stmt.execute(&s, &[Value::from(k)]).unwrap();
            assert_eq!(res.relation.len(), k as usize);
        }
        // LIMIT/TOP must bind non-negative integers.
        assert!(matches!(
            stmt.execute(&s, &[Value::from(-1)]),
            Err(SqlError::BadParam { index: 1, .. })
        ));
        assert!(matches!(
            stmt.execute(&s, &[Value::from("three")]),
            Err(SqlError::BadParam { index: 1, .. })
        ));
    }

    #[test]
    fn but_only_bounds_take_params() {
        let s = session();
        let stmt = s
            .prepare(
                "SELECT * FROM car PREFERRING price AROUND 40000 AND color IN ('red') \
                 BUT ONLY DISTANCE(price) <= $1 AND LEVEL(color) < $2",
            )
            .unwrap();
        for (distance, level) in [(0i64, 9i64), (2_000, 9), (2_000, 2), (9_000, 2), (9_000, 1)] {
            let res = stmt.execute(&s, &[Value::from(distance), Value::from(level)]);
            let sql = format!(
                "SELECT * FROM car PREFERRING price AROUND 40000 AND color IN ('red') \
                 BUT ONLY DISTANCE(price) <= {distance} AND LEVEL(color) < {level}"
            );
            let inline = s.execute(&sql).unwrap().relation.to_string();
            assert_eq!(res.unwrap().relation.to_string(), inline, "{sql}");
        }
        // A float bound binds too; a non-numeric one is the caller's `$n`.
        assert!(stmt
            .execute(&s, &[Value::from(0.5), Value::from(1)])
            .is_ok());
        assert!(matches!(
            stmt.execute(&s, &[Value::from("near"), Value::from(1)]),
            Err(SqlError::BadParam { index: 1, .. })
        ));
        assert!(matches!(
            stmt.execute(&s, &[Value::from(1), Value::from(true)]),
            Err(SqlError::BadParam { index: 2, .. })
        ));
        // The bound is a statement slot like any other.
        assert!(matches!(
            s.prepare("SELECT * FROM car PREFERRING LOWEST(price) BUT ONLY LEVEL(price) <= $2"),
            Err(SqlError::UnusedParam { index: 1 })
        ));
    }

    /// `(level, row)` order of `car`'s rows under `p`'s better-than graph
    /// (Def. 2) — the oracle of a TOP statement.
    fn graph_order(s: &PrefSql, p: &Pref) -> Vec<usize> {
        let r = s.catalog().get("car").unwrap();
        let c = pref_core::eval::CompiledPref::compile(p, r.schema()).unwrap();
        let g = pref_core::graph::BetterGraph::from_relation(&c, r).unwrap();
        let mut rows: Vec<usize> = (0..r.len()).collect();
        rows.sort_by_key(|&i| (g.level(i), i));
        rows
    }

    #[test]
    fn top_with_group_by_ranks_by_level_within_the_group() {
        let s = session();
        let car = s.catalog().get("car").unwrap().clone();
        let grouped = Pref::Antichain(AttrSet::single(pref_relation::attr("make")))
            .prior(pref_core::term::lowest("price"));
        let order = graph_order(&s, &grouped);
        for k in 0..=car.len() + 1 {
            let sql = format!("SELECT TOP {k} * FROM car PREFERRING LOWEST(price) GROUP BY make");
            let res = s.execute(&sql).unwrap();
            let want = car.take_rows(&order[..k.min(car.len())]);
            assert_eq!(res.relation.to_string(), want.to_string(), "k = {k}");
            // The report and EXPLAIN SELECT both describe the grouped term.
            let ran = res.explain.unwrap();
            assert_eq!(ran.original, grouped.to_string());
            assert_ne!(ran.cache, pref_query::CacheStatus::Bypass);
            let plan = s.execute(&format!("EXPLAIN {sql}")).unwrap().relation;
            let lines: Vec<&str> = plan.iter().map(|t| t[0].as_str().unwrap()).collect();
            assert!(
                lines.contains(&format!("preference : {grouped}").as_str()),
                "{lines:?}"
            );
            assert!(lines.iter().any(|l| l.starts_with("top")), "{lines:?}");
        }
        // Both Opels at 38 000 and 39 500 come before the BMW's level 1
        // ends: the BMW is level 1 of its group, so TOP 2 is one car of
        // each make.
        let two = s
            .execute("SELECT TOP 2 make FROM car PREFERRING LOWEST(price) GROUP BY make")
            .unwrap();
        let makes: Vec<&Value> = two.relation.iter().map(|t| &t[0]).collect();
        assert_eq!(makes.len(), 2);
        assert_ne!(makes[0], makes[1]);
    }

    #[test]
    fn repeated_top_and_group_by_report_a_warm_tier() {
        for sql in [
            "SELECT TOP 3 * FROM car PREFERRING price AROUND 40000",
            "SELECT * FROM car PREFERRING price AROUND 40000 GROUP BY make",
            "SELECT TOP 3 * FROM car PREFERRING price AROUND 40000 GROUP BY make",
        ] {
            let s = session();
            let cache = || s.execute(sql).unwrap().explain.unwrap().cache;
            assert_eq!(cache(), pref_query::CacheStatus::Miss, "{sql}");
            assert_eq!(cache(), pref_query::CacheStatus::Hit, "{sql}");
        }
    }

    /// `σ[P groupby make](car)` by Def. 16's definitional form, rendered.
    fn def16(p: &Pref, car: &Relation) -> String {
        let by = AttrSet::single(pref_relation::attr("make"));
        let rows = pref_query::groupby::sigma_groupby_definitional(p, &by, car).unwrap();
        car.take_rows(&rows).to_string()
    }

    #[test]
    fn a_grouped_statement_runs_on_the_result_tier() {
        use pref_core::term::lowest;
        use pref_query::CacheStatus;
        // GROUP BY is the term `make↔ & P`: a repeat is an exact result
        // hit, an append and a delete of a dominated row are maintained,
        // and deleting a group's best row promotes what it dominated.
        let mut s = session();
        let sql = "SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(mileage) GROUP BY make";
        let p = lowest("price").pareto(lowest("mileage"));
        let run = |s: &PrefSql| {
            let res = s.execute(sql).unwrap();
            let car = s.catalog().get("car").unwrap();
            assert_eq!(res.relation.to_string(), def16(&p, car));
            (res.relation.to_string(), res.explain.unwrap().cache)
        };
        assert_eq!(run(&s).1, CacheStatus::Miss);
        assert_eq!(run(&s).1, CacheStatus::Hit);
        assert_eq!(s.engine().cache_stats().result_entries, 1);
        let worse = ["Opel", "van", "white"].map(Value::from);
        let worse = [
            worse.to_vec(),
            [50_000, 100, 90_000].map(Value::from).to_vec(),
        ]
        .concat();
        s.append_row("car", worse).unwrap();
        assert_eq!(run(&s).1, CacheStatus::MaintainedHit);
        s.delete("DELETE FROM car WHERE price = 50000").unwrap();
        let (before, cache) = run(&s);
        assert_eq!(cache, CacheStatus::MaintainedHit);
        // The Opel at 38 000 / 20 000 dominates every other Opel; without
        // it, 40 000 / 30 000 and 39 500 / 80 000 are the Opel group's best.
        assert!(!before.contains("40000"), "{before}");
        s.delete("DELETE FROM car WHERE price = 38000").unwrap();
        let (after, _) = run(&s);
        assert!(
            after.contains("40000") && after.contains("39500"),
            "{after}"
        );
    }

    #[test]
    fn a_grouped_where_binding_windows_onto_the_table_matrix() {
        use pref_core::term::lowest;
        let s = session();
        let stmt = s
            .prepare("SELECT * FROM car WHERE price <= $1 PREFERRING LOWEST(mileage) GROUP BY make")
            .unwrap();
        for cap in [45_000, 40_000, 39_000] {
            let res = stmt.execute(&s, &[Value::from(cap)]).unwrap();
            let car = s.catalog().get("car").unwrap();
            let view = car.select(|t| t[3] <= Value::from(cap));
            assert_eq!(res.relation.to_string(), def16(&lowest("mileage"), &view));
            let cache = res.explain.unwrap().cache;
            assert_eq!(cache, pref_query::CacheStatus::WindowHit, "{cap}");
        }
    }

    #[test]
    fn the_shape_line_covers_group_by() {
        let s = session();
        let shape = |sql: &str| {
            let stmt = s.prepare(sql).unwrap();
            let res = stmt.execute(&s, &[Value::from(40_000)]).unwrap();
            let lines = res.explain.unwrap().lines();
            lines.into_iter().find(|l| l.starts_with("shape")).unwrap()
        };
        let by_make = shape("SELECT * FROM car PREFERRING price AROUND $1 GROUP BY make");
        let by_color = shape("SELECT * FROM car PREFERRING price AROUND $1 GROUP BY color");
        assert_ne!(by_make, by_color);
        // The grouping is part of the shape, not of the binding.
        assert_eq!(
            by_make,
            shape("SELECT * FROM car PREFERRING price AROUND $1 GROUP BY make")
        );
    }

    #[test]
    fn repeated_pref_bindings_hit_exactly() {
        // No WHERE clause: the pipeline runs on the catalog table, so a
        // repeated binding resolves via the exact (generation, term
        // fingerprint) key — the same entry inline literals would use.
        let s = session();
        let stmt = s
            .prepare("SELECT * FROM car PREFERRING price AROUND $1 AND LOWEST(mileage)")
            .unwrap();
        let first = stmt.execute(&s, &[Value::from(40_000)]).unwrap();
        assert_eq!(
            first.explain.unwrap().cache,
            pref_query::CacheStatus::Miss,
            "first-ever binding builds"
        );
        let second = stmt.execute(&s, &[Value::from(40_000)]).unwrap();
        assert_eq!(
            second.explain.unwrap().cache,
            pref_query::CacheStatus::Hit,
            "repeated binding hits exactly"
        );
        // The ad-hoc inline-literal statement shares the very same entry.
        let adhoc = s
            .execute("SELECT * FROM car PREFERRING price AROUND 40000 AND LOWEST(mileage)")
            .unwrap();
        assert_eq!(adhoc.explain.unwrap().cache, pref_query::CacheStatus::Hit);

        // A different binding is a different concrete query: cold once.
        let other = stmt.execute(&s, &[Value::from(39_000)]).unwrap();
        assert_eq!(other.explain.unwrap().cache, pref_query::CacheStatus::Miss);
    }

    #[test]
    fn prepare_before_registration_still_executes() {
        let mut s = PrefSql::new();
        let stmt = s
            .prepare("SELECT * FROM late PREFERRING LOWEST(x)")
            .unwrap();
        assert!(!stmt.is_precompiled(), "table unknown at prepare time");
        assert!(matches!(
            stmt.execute(&s, &[]),
            Err(SqlError::UnknownTable(_))
        ));
        s.register("late", rel! { ("x": Int); (2,), (1,) });
        let res = stmt.execute(&s, &[]).unwrap();
        assert_eq!(res.relation.len(), 1);
        assert_eq!(res.relation.row(0)[0], Value::from(1));
    }

    #[test]
    fn schema_changes_recompile_the_statement() {
        // A prepared statement stays usable across re-registrations of
        // its table: an identical schema keeps the compiled statement, a
        // changed one compiles it afresh on the next execution. The
        // statement fingerprint a bound execution reports is taken from
        // the clauses, so it survives both.
        let mut s = session();
        let stmt = s
            .prepare("SELECT * FROM car PREFERRING price AROUND $1")
            .unwrap();
        let fp = |res: QueryResult| res.explain.unwrap().shape_fingerprint;
        let shape_fp = fp(stmt.execute(&s, &[Value::from(40_000)]).unwrap());
        assert!(shape_fp.is_some(), "a bound execution reports itself");

        // Re-registering with an *identical* schema keeps the compiled
        // statement (fresh data, same plan).
        s.register(
            "car",
            rel! {
                ("make": Str, "category": Str, "color": Str, "price": Int,
                 "power": Int, "mileage": Int);
                ("Fiat", "van", "white", 12_000, 70, 90_000),
            },
        );
        assert_eq!(
            fp(stmt.execute(&s, &[Value::from(40_000)]).unwrap()),
            shape_fp,
            "identical schema, same statement"
        );

        // A *changed* schema recompiles the statement lazily.
        s.register(
            "car",
            rel! {
                ("price": Int, "tax": Int);
                (30_000, 5), (20_000, 9),
            },
        );
        let after = stmt.execute(&s, &[Value::from(21_000)]).unwrap();
        assert_eq!(after.relation.len(), 1);
        assert_eq!(after.relation.row(0)[0], Value::from(20_000));
        assert_eq!(
            fp(stmt.execute(&s, &[Value::from(21_000)]).unwrap()),
            shape_fp,
            "changed schema, same statement"
        );

        // The lazily recompiled statement is a real prepared query: the
        // same binding over the unchanged new table now hits the matrix
        // cache exactly.
        let warm = stmt.execute(&s, &[Value::from(21_000)]).unwrap();
        assert!(warm.explain.unwrap().cache.is_warm());
    }

    #[test]
    fn a_bound_execution_reports_the_inline_statements_derivation() {
        // Binding substitutes values into the AST, so a bound execution
        // plans the very term the inline-literal statement plans: the
        // same `preference :` line (values, not `$n`) and the same
        // rewrite derivation, e.g. Prop. 3l (P ⊗ P ≡ P) — whether the
        // duplicate is written out or appears only once `$1 = $2`.
        let s = session();
        let cases: [(&str, &[Value], &str); 2] = [
            (
                "SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(price) \
                 AND mileage AROUND $1",
                &[Value::Int(30_000)],
                "SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(price) \
                 AND mileage AROUND 30000",
            ),
            (
                "SELECT * FROM car PREFERRING price AROUND $1 AND price AROUND $2",
                &[Value::Int(40_000), Value::Int(40_000)],
                "SELECT * FROM car PREFERRING price AROUND 40000 AND price AROUND 40000",
            ),
        ];
        for (prepared, params, inline) in cases {
            let report = |ex: &Explain| -> Vec<String> {
                (ex.lines().into_iter())
                    .filter(|l| {
                        !["shape", "cache", "reason"]
                            .iter()
                            .any(|k| l.starts_with(k))
                    })
                    .collect()
            };
            let inline_ex = s.execute(inline).unwrap().explain.unwrap();
            let stmt = s.prepare(prepared).unwrap();
            let bound_ex = stmt.execute(&s, params).unwrap().explain.unwrap();
            assert_eq!(report(&bound_ex), report(&inline_ex), "{prepared}");
            assert!(
                (bound_ex.lines().iter()).any(|l| l.starts_with("law") && l.contains("Prop. 3l")),
                "{bound_ex}"
            );
            let shape = (bound_ex.lines().into_iter())
                .find(|l| l.starts_with("shape"))
                .expect("a bound execution reports its statement and values");
            let values: Vec<String> = params.iter().map(Value::to_string).collect();
            assert!(
                shape.ends_with(&format!("bound [{}]", values.join(", "))),
                "{shape}"
            );
            assert_eq!(bound_ex.cache, pref_query::CacheStatus::Hit);
        }
    }

    #[test]
    fn adhoc_and_prepared_execution_are_one_path() {
        // (statement, fingerprint its term had before ad hoc and
        // prepared execution shared one compile step).
        let cases: [(&str, Option<u64>); 16] = [
            (
                "SELECT * FROM car PREFERRING price AROUND 40000 AND LOWEST(mileage)",
                Some(0x7c28_d4f8_91e4_cbdd),
            ),
            (
                "SELECT * FROM car PREFERRING category = 'roadster' ELSE category <> 'passenger' \
                 PRIOR TO HIGHEST(power) CASCADE color IN ('red', 'blue')",
                Some(0x9762_5922_9a24_bd7f),
            ),
            (
                "SELECT * FROM car PREFERRING price BETWEEN 38000 AND 40000 \
                 AND EXPLICIT(color, ('gray', 'red'))",
                Some(0x10c3_94f4_4e26_8821),
            ),
            (
                "SELECT make FROM car WHERE make = 'Opel' PREFERRING LOWEST(price)",
                None,
            ),
            ("SELECT TOP 3 * FROM car PREFERRING LOWEST(price)", None),
            (
                "SELECT * FROM car PREFERRING HIGHEST(power) AND LOWEST(price) LIMIT 2",
                None,
            ),
            (
                "SELECT * FROM car PREFERRING price AROUND 40000 GROUP BY make",
                None,
            ),
            ("SELECT * FROM car WHERE price < 40000", None),
            // Malformed: both spellings must fail the same way.
            ("SELECT * FROM nope PREFERRING LOWEST(x)", None),
            ("SELECT * FROM car PREFERRING LOWEST(wheels)", None),
            ("SELECT * FROM car PREFERRING price = 'cheap'", None),
            ("SELECT * FROM car PREFERRING make AROUND 5", None),
            (
                "SELECT * FROM car PREFERRING make = 'BMW' ELSE make <> 'BMW'",
                None,
            ),
            (
                "SELECT * FROM car PREFERRING price AROUND 1 GROUP BY nope",
                None,
            ),
            // Two defects: both spellings report the one the pipeline
            // meets first (WHERE before PREFERRING before SELECT).
            (
                "SELECT * FROM car WHERE wheels = 4 PREFERRING make AROUND 5",
                None,
            ),
            ("SELECT nope FROM car PREFERRING price = 'cheap'", None),
        ];
        for (sql, fingerprint) in cases {
            let s = session();
            let adhoc = s.execute(sql);
            let stmt = s.prepare(sql);
            let prepared = (stmt.as_ref().map_err(Clone::clone)).and_then(|st| st.execute(&s, &[]));
            match (adhoc, prepared) {
                (Ok(a), Ok(p)) => {
                    assert_eq!(a.relation.to_string(), p.relation.to_string(), "{sql}");
                    assert_eq!(a.preference, p.preference, "{sql}");
                    if let Some(fp) = fingerprint {
                        let c = stmt.unwrap().compiled.lock().clone().expect("compiled");
                        let Ok(Some(PrefStage::Concrete { prepared, .. })) = &c.pref else {
                            panic!("{sql} prepares at compile time");
                        };
                        assert_eq!(prepared.fingerprint(), fp, "fingerprint moved: {sql}");
                        // Same term, same table: one cache entry for both.
                        assert_eq!(
                            p.explain.expect("BMO stage ran").cache,
                            pref_query::CacheStatus::Hit,
                            "{sql}"
                        );
                    }
                }
                (Err(a), Err(p)) => {
                    assert_eq!(format!("{a:?}"), format!("{p:?}"), "{sql}");
                    if sql.contains("wheels") {
                        assert!(
                            matches!(&a, SqlError::UnknownColumn { column, .. } if column == "wheels"),
                            "{sql}: {a:?}"
                        );
                    } else if sql.starts_with("SELECT nope") {
                        assert!(matches!(a, SqlError::BadLiteral { .. }), "{sql}: {a:?}");
                    }
                }
                (a, p) => panic!("{sql}: ad hoc {a:?} but prepared {p:?}"),
            }
        }
    }

    #[test]
    fn explain_through_a_prepared_statement_matches_the_inline_literal() {
        let s = session();
        let lines = |res: QueryResult| -> Vec<String> {
            res.relation
                .iter()
                .map(|t| t[0].as_str().unwrap().to_string())
                .collect()
        };
        let stmt = s
            .prepare("EXPLAIN SELECT * FROM car PREFERRING price AROUND $1")
            .unwrap();
        let bound = lines(stmt.execute(&s, &[Value::from(40_000)]).unwrap());
        let inline = lines(
            s.execute("EXPLAIN SELECT * FROM car PREFERRING price AROUND 40000")
                .unwrap(),
        );
        assert!(bound
            .iter()
            .any(|l| l == "preference : AROUND(price; 40000)"));
        assert_eq!(bound, inline);
    }

    #[test]
    fn a_reused_explain_reports_the_table_it_runs_on() {
        let mut s = session();
        let stmt = s
            .prepare("EXPLAIN SELECT * FROM car PREFERRING LOWEST(price)")
            .unwrap();
        let explain = |s: &PrefSql| stmt.execute(s, &[]).unwrap().relation.to_string();
        // The `stats` line's head for the table as it is now.
        let now = |s: &PrefSql, rows: usize| {
            let generation = s.catalog().get("car").unwrap().generation();
            format!("stats      : {rows} rows at generation {generation},")
        };
        let text = explain(&s);
        assert!(text.contains(&now(&s, 5)), "{text}");
        let row = ["VW", "van", "white"].map(Value::from);
        let nums = [30_000, 100, 5_000].map(Value::from);
        s.append_row("car", row.into_iter().chain(nums).collect())
            .unwrap();
        let text = explain(&s);
        assert!(text.contains(&now(&s, 6)), "{text}");
    }

    #[test]
    fn delete_statement_removes_matching_rows_and_maintains_results() {
        let mut s = session();
        // Warm a cached BMO result before mutating.
        let sql = "SELECT * FROM car PREFERRING LOWEST(price)";
        assert_eq!(s.execute(sql).unwrap().relation.len(), 1);

        // Deleting non-members leaves the result maintainable in place.
        assert_eq!(
            s.delete("DELETE FROM car WHERE mileage >= 60000").unwrap(),
            2
        );
        let res = s.execute(sql).unwrap();
        assert_eq!(res.relation.len(), 1);
        assert_eq!(res.relation.row(0)[3], Value::from(38_000));
        assert_eq!(
            res.explain.unwrap().cache,
            pref_query::CacheStatus::MaintainedHit,
            "deleting non-members must patch the cached result, not rebuild"
        );

        // Deleting the winner re-promotes the runner-up.
        assert_eq!(s.delete("DELETE FROM car WHERE price = 38000").unwrap(), 1);
        let res = s.execute(sql).unwrap();
        assert_eq!(res.relation.row(0)[3], Value::from(40_000));

        // WHERE-less DELETE empties the table; unknown tables error.
        assert_eq!(s.delete("DELETE FROM car").unwrap(), 2);
        assert_eq!(s.execute("SELECT * FROM car").unwrap().relation.len(), 0);
        assert!(s.delete("DELETE FROM nope").is_err());
        assert!(s.delete("SELECT * FROM car").is_err());
    }

    #[test]
    fn a_delete_of_more_rows_than_delta_bases_is_maintained() {
        let mut s = PrefSql::new();
        s.register(
            "t",
            rel! { ("x": Int); (0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,) },
        );
        let sql = "SELECT * FROM t PREFERRING LOWEST(x)";
        assert_eq!(s.execute(sql).unwrap().relation.len(), 1);
        // Six victims, one mutation: one delta base, not six.
        const { assert!(6 > pref_relation::Delta::MAX_BASES) };
        assert_eq!(s.delete("DELETE FROM t WHERE x >= 2").unwrap(), 6);
        let res = s.execute(sql).unwrap();
        assert_eq!(res.relation.row(0)[0], Value::from(0));
        assert_eq!(
            res.explain.unwrap().cache,
            pref_query::CacheStatus::MaintainedHit
        );
    }

    #[test]
    fn conflicting_preferences_do_not_fail() {
        // Desideratum (4): conflicts must not crash — LOWEST and HIGHEST
        // on the same attribute leave everything unranked.
        let s = session();
        let res = s
            .execute("SELECT * FROM car PREFERRING LOWEST(price) AND HIGHEST(price)")
            .unwrap();
        assert_eq!(res.relation.len(), 5);
    }
}
