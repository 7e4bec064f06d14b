//! Compile once, bind per execution.
//!
//! Every statement — ad hoc, prepared, `EXPLAIN` — runs as *compile to
//! a [`CompiledStatement`] once per (statement, schema), then bind and
//! run*. A `$n` placeholder binds the same way in every clause: its
//! value is substituted into the AST as the literal it stands for
//! (`HardExpr::map_literals` for WHERE, `PrefExpr::map_literals` for
//! PREFERRING/CASCADE), and the bound AST takes the ordinary concrete
//! path — [`pref_to_term`], then [`Engine::prepare`]. A statement
//! without preference-side placeholders takes that path once, at
//! compile time, and every execution borrows the prepared query. An ad
//! hoc statement is simply one that binds the empty parameter list.
//!
//! Either way a statement with a preference clause runs on exactly one
//! [`Prepared`] per execution: the BMO winnow, TOP's k-best relaxation
//! and EXPLAIN's plan are all operators of it, and this module is the
//! only caller of [`Engine::prepare`]. GROUP BY `A` is part of the term:
//! Def. 16's `σ[P groupby A](R) := σ[A↔ & P](R)`, so a grouped statement
//! is an ordinary winnow with every cache tier, and TOP with GROUP BY
//! ranks by the levels within each group.

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;
use pref_core::term::Pref;
use pref_query::{Engine, Prepared};
use pref_relation::{predicate_fingerprint, AttrSet, DataType, Relation, Schema, Value};

use crate::ast::{LimitSpec, Literal, PrefExpr, Query};
use crate::error::SqlError;
use crate::rewrite::{column_type, literal_to_value, pref_to_term};

/// What compiling a statement against one schema produces.
#[derive(Debug)]
pub(crate) struct CompiledStatement {
    /// The schema the statement was compiled against (the table's own
    /// shared handle); a table re-registered with a different one needs
    /// a fresh compile.
    pub(crate) schema: Arc<Schema>,
    /// Does the WHERE clause contain `$n` placeholders? Every binding
    /// then derives a fresh predicate, so executions keep the table's
    /// whole-relation matrix warm for the window tier.
    pub(crate) hard_is_parameterized: bool,
    /// The compiled preference stage (`None` for an exact-match
    /// statement). A rewrite error is kept, not raised: it surfaces
    /// where the preference stage runs, so a statement with several
    /// defects reports them in pipeline order (table, LIMIT/TOP, WHERE,
    /// then PREFERRING).
    pub(crate) pref: Result<Option<PrefStage>, SqlError>,
}

/// The PREFERRING/CASCADE clauses of a statement, compiled.
#[derive(Debug)]
pub(crate) enum PrefStage {
    /// No `$n` in the clauses: the term, rewritten once, and the
    /// engine-prepared query every execution borrows.
    Concrete { term: Pref, prepared: Box<Prepared> },
    /// `$n` in the clauses: every execution substitutes its values and
    /// prepares the concrete term it gets.
    Parameterized {
        /// PREFERRING, then each CASCADE, with `$n` in place.
        clauses: Vec<PrefExpr>,
        /// The statement's fingerprint, stable across bindings — the
        /// `shape` line of every bound execution's report.
        fingerprint: u64,
        /// Preference-binding fingerprints seen by executions of this
        /// statement — the recurrence signal gating the whole-table
        /// warm-keep.
        seen_bindings: Mutex<HashSet<u64>>,
    },
}

impl CompiledStatement {
    /// Compile `q` against the schema of `table`, the relation its FROM
    /// clause names.
    pub(crate) fn compile(engine: &Engine, q: &Query, table: &Relation) -> Self {
        let mut hard_is_parameterized = false;
        if let Some(h) = &q.hard {
            h.walk_literals(&mut |l| hard_is_parameterized |= matches!(l, Literal::Param(_)));
        }
        CompiledStatement {
            schema: table.schema_arc(),
            hard_is_parameterized,
            pref: PrefStage::compile(engine, q, table.schema()),
        }
    }
}

/// The term of `q`'s preference clauses `clauses`: PREFERRING … CASCADE
/// … is prioritised accumulation, outer clause most important, and GROUP
/// BY `A` puts the anti-chain `A↔` in front of it (Def. 16), each of its
/// columns checked like a LOWEST column.
fn term_of(q: &Query, clauses: &[PrefExpr], schema: &Schema) -> Result<Pref, SqlError> {
    let parts = (clauses.iter())
        .map(|p| pref_to_term(p, schema, &q.table))
        .collect::<Result<Vec<_>, _>>()?;
    let term = Pref::prior_all(parts)?;
    for column in &q.group_by {
        column_type(schema, &q.table, column)?;
    }
    Ok(match q.group_by.as_slice() {
        [] => term,
        by => Pref::Antichain(AttrSet::new(by.iter().map(String::as_str))).prior(term),
    })
}

impl PrefStage {
    fn compile(engine: &Engine, q: &Query, schema: &Schema) -> Result<Option<Self>, SqlError> {
        let clauses: Vec<PrefExpr> = q.preferring.iter().chain(&q.cascade).cloned().collect();
        if clauses.is_empty() {
            return Ok(None);
        }
        let mut parameterized = false;
        for c in &clauses {
            c.walk_literals(&mut |l| parameterized |= matches!(l, Literal::Param(_)));
        }
        if parameterized {
            // The AST's derived rendering is deterministic for a build:
            // equal clauses and grouping, equal fingerprint, whatever the
            // binding.
            let shape = format!("{clauses:?} {:?}", q.group_by);
            let fingerprint = predicate_fingerprint(shape.as_bytes());
            return Ok(Some(PrefStage::Parameterized {
                clauses,
                fingerprint,
                seen_bindings: Mutex::default(),
            }));
        }
        let term = term_of(q, &clauses, schema)?;
        let prepared = Box::new(engine.prepare(&term, schema)?);
        Ok(Some(PrefStage::Concrete { term, prepared }))
    }

    /// The concrete term this execution of `q` evaluates and the engine
    /// query that runs it: the compiled ones, borrowed, or — with `$n`
    /// in the clauses — the ones the clauses give with `params`
    /// substituted.
    pub(crate) fn bind(
        &self,
        engine: &Engine,
        q: &Query,
        schema: &Schema,
        params: &[Value],
    ) -> Result<(Pref, Cow<'_, Prepared>), SqlError> {
        let clauses = match self {
            PrefStage::Concrete { term, prepared } => {
                return Ok((term.clone(), Cow::Borrowed(prepared)))
            }
            PrefStage::Parameterized { clauses, .. } => clauses,
        };
        let mut bind = |column: &str, lit: &Literal| {
            bind_typed(
                lit,
                column,
                column_type(schema, &q.table, column).ok(),
                params,
            )
        };
        let bound = (clauses.iter())
            .map(|c| c.map_literals(&mut bind))
            .collect::<Result<Vec<_>, _>>()?;
        let term = term_of(q, &bound, schema)?;
        let prepared = engine.prepare(&term, schema)?;
        Ok((term, Cow::Owned(prepared)))
    }

    /// The statement fingerprint a bound execution reports (`None`
    /// without preference-side placeholders).
    pub(crate) fn shape_fingerprint(&self) -> Option<u64> {
        match self {
            PrefStage::Concrete { .. } => None,
            PrefStage::Parameterized { fingerprint, .. } => Some(*fingerprint),
        }
    }

    /// Should an execution of `exec` under a *parameterized WHERE
    /// clause* keep the whole-table matrix resident? Every WHERE binding
    /// derives a fresh, never-seen predicate; with the table matrix
    /// warm, such views resolve through the window tier (row-id
    /// indirection over the cached matrix) instead of building a subset
    /// matrix per binding. When the preference side is parameterized
    /// too, the table matrix is per-preference-binding — only pay its
    /// O(table) materialization once a binding proves to recur, so a
    /// one-shot binding over a tiny view stays O(view). The set of seen
    /// bindings is bounded — a pathological stream of one-shot
    /// bindings resets it rather than growing without bound.
    pub(crate) fn binding_recurs(&self, exec: &Prepared) -> bool {
        let PrefStage::Parameterized { seen_bindings, .. } = self else {
            return true;
        };
        let mut seen = seen_bindings.lock();
        if seen.len() > 1024 {
            seen.clear();
        }
        !seen.insert(exec.fingerprint())
    }
}

/// Bind-time validation of a prepared statement's arguments, before any
/// value flows anywhere: the count must match exactly and every value
/// must be able to stand in for a literal ([`value_to_literal`]: never
/// NULL, and no non-finite float — it would poison WHERE comparisons
/// and the NaN-filtered dominance-key materialization alike).
pub(crate) fn check_params(expected: usize, params: &[Value]) -> Result<(), SqlError> {
    if params.len() != expected {
        return Err(SqlError::ParamCount {
            expected,
            got: params.len(),
        });
    }
    for (i, v) in params.iter().enumerate() {
        value_to_literal(v, i + 1)?;
    }
    Ok(())
}

/// Substitute one literal position of a WHERE clause.
pub(crate) fn bind_literal(lit: &Literal, params: &[Value]) -> Result<Literal, SqlError> {
    match lit {
        Literal::Param(n) => match params.get(*n - 1) {
            Some(v) => value_to_literal(v, *n),
            None => Err(SqlError::UnboundParam { index: *n }),
        },
        other => Ok(other.clone()),
    }
}

/// Substitute one PREFERRING/CASCADE literal position of `column`, or
/// a BUT ONLY bound on it, whose value must coerce to `dtype` exactly
/// like the inline literal it stands for; one that does not is the
/// caller's `$n` at fault ([`SqlError::BadParam`]), not the statement's.
/// An unknown type (an unknown column) is left for the rewriter to
/// report.
pub(crate) fn bind_typed(
    lit: &Literal,
    column: &str,
    dtype: Option<DataType>,
    params: &[Value],
) -> Result<Literal, SqlError> {
    let Literal::Param(n) = lit else {
        return Ok(lit.clone());
    };
    let bound = bind_literal(lit, params)?;
    match dtype {
        Some(dtype) if literal_to_value(&bound, column, dtype).is_err() => {
            Err(SqlError::BadParam {
                index: *n,
                value: params[*n - 1].to_string(),
            })
        }
        _ => Ok(bound),
    }
}

/// Resolve a `LIMIT` / `TOP` position against the binding: a literal
/// count passes through, `$n` must bind a non-negative integer.
pub(crate) fn resolve_limit(
    spec: &Option<LimitSpec>,
    params: &[Value],
) -> Result<Option<usize>, SqlError> {
    Ok(match spec {
        None => None,
        Some(LimitSpec::Count(k)) => Some(*k),
        Some(LimitSpec::Param(n)) => {
            let v = params
                .get(*n - 1)
                .ok_or(SqlError::UnboundParam { index: *n })?;
            match v.as_int() {
                Some(k) if k >= 0 => Some(k as usize),
                _ => {
                    return Err(SqlError::BadParam {
                        index: *n,
                        value: v.to_string(),
                    })
                }
            }
        }
    })
}

/// Turn a bound parameter value into the literal it stands for; type
/// coercion against the column happens later, exactly as for inline
/// literals ([`crate::rewrite::literal_to_value`]). Dates bind as
/// *typed* date literals — no string round-trip — and NULL and
/// non-finite floats are rejected outright.
pub(crate) fn value_to_literal(v: &Value, index: usize) -> Result<Literal, SqlError> {
    let bad = || SqlError::BadParam {
        index,
        value: v.to_string(),
    };
    Ok(match v {
        Value::Int(i) => Literal::Int(*i),
        Value::Float(f) if f.is_finite() => Literal::Float(*f),
        Value::Float(_) => return Err(bad()),
        Value::Str(s) => Literal::Str(s.to_string()),
        Value::Bool(b) => Literal::Bool(*b),
        Value::Date(d) => Literal::Date(*d),
        Value::Null => return Err(bad()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use pref_core::CoreError;
    use pref_relation::{DataType, Date};

    fn schema() -> Schema {
        Schema::new(vec![
            ("make", DataType::Str),
            ("price", DataType::Int),
            ("rating", DataType::Float),
            ("start_date", DataType::Date),
        ])
        .unwrap()
    }

    /// The term an execution of `sql` bound to `params` evaluates.
    fn bound(sql: &str, params: &[Value]) -> Result<Pref, SqlError> {
        let (engine, q) = (Engine::new(), parse(sql).unwrap());
        let stage = PrefStage::compile(&engine, &q, &schema()).unwrap().unwrap();
        assert!(stage.shape_fingerprint().is_some(), "{sql} has `$n`");
        stage
            .bind(&engine, &q, &schema(), params)
            .map(|(term, _)| term)
    }

    #[test]
    fn binding_coerces_against_the_column_type() {
        // Int widens for a Float column; a typed Date binds directly.
        let b = bound(
            "SELECT * FROM t PREFERRING rating AROUND $1",
            &[Value::from(3)],
        )
        .unwrap();
        assert_eq!(b.to_string(), "AROUND(rating; 3)");

        let sql = "SELECT * FROM t PREFERRING start_date AROUND $1";
        let d = Date::parse("2001/11/23").unwrap();
        let b = bound(sql, &[Value::from(d)]).unwrap();
        assert_eq!(b.to_string(), "AROUND(start_date; 2001/11/23)");
        // …and a string still parses, like an inline literal.
        let b = bound(sql, &[Value::from("2001/11/24")]).unwrap();
        assert!(b.to_string().contains("2001/11/24"));
    }

    #[test]
    fn bad_bindings_report_the_parameter() {
        let sql = "SELECT * FROM t PREFERRING make IN ('VW', $2) AND price AROUND $1";
        assert!(matches!(
            bound(sql, &[Value::from("cheap"), Value::from("BMW")]),
            Err(SqlError::BadParam { index: 1, .. })
        ));
        assert!(matches!(
            bound(sql, &[Value::from(1)]),
            Err(SqlError::UnboundParam { index: 2 })
        ));
    }

    #[test]
    fn constructor_validation_defers_to_bind_time() {
        // POS/NEG disjointness cannot be checked while a `$n` is open;
        // a binding that overlaps surfaces the constructor's own error.
        let sql = "SELECT * FROM t PREFERRING make = $1 ELSE make <> 'VW'";
        assert!(bound(sql, &[Value::from("Opel")]).is_ok());
        assert!(matches!(
            bound(sql, &[Value::from("VW")]),
            Err(SqlError::Core(CoreError::OverlappingSets { .. }))
        ));
    }

    #[test]
    fn bound_clauses_rewrite_to_the_inline_term() {
        // prepare + bind and parse-with-inline-literals meet in the same
        // term, hence the same compiled fingerprint.
        let b = bound(
            "SELECT * FROM t PREFERRING price AROUND $1 AND LOWEST(rating) CASCADE make = $2",
            &[Value::from(40_000), Value::from("VW")],
        )
        .unwrap();
        let q = parse(
            "SELECT * FROM t PREFERRING price AROUND 40000 AND LOWEST(rating) CASCADE make = 'VW'",
        )
        .unwrap();
        let stage = PrefStage::compile(&Engine::new(), &q, &schema())
            .unwrap()
            .unwrap();
        let PrefStage::Concrete { term, .. } = stage else {
            panic!("no `$n`, so the term is rewritten at compile time");
        };
        assert_eq!(b, term);
    }
}
