//! Compile once, bind per execution.
//!
//! Every statement — ad hoc, prepared, `EXPLAIN` — runs as *compile to
//! a [`CompiledStatement`] once per (statement, schema), then bind and
//! run*. Compilation is the AST→term rewrite ([`crate::shape`]: `$n`
//! placeholders become typed slots) plus, for plain BMO statements,
//! [`Engine::prepare`]; binding patches the slots of the compiled shape
//! ([`Prepared::bind`]) and substitutes the WHERE clause's placeholders
//! ([`bind_literal`]). An ad hoc statement is simply one that binds the
//! empty parameter list.

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;
use pref_core::term::Pref;
use pref_core::CoreError;
use pref_query::{Engine, Prepared, QueryError};
use pref_relation::{Relation, Schema, Value};

use crate::ast::{LimitSpec, Literal, Query};
use crate::error::SqlError;
use crate::shape::pref_to_shape_term;

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
    pub(crate) hard_has_params: bool,
    /// The compiled preference stage (`None` for an exact-match
    /// statement). A rewrite error is kept, not raised: it surfaces
    /// where the preference stage runs, so a statement with several
    /// defects reports them in pipeline order (table, LIMIT/TOP, WHERE,
    /// then PREFERRING).
    pub(crate) pref: Result<Option<PrefStage>, SqlError>,
}

/// The PREFERRING/CASCADE clauses of a statement, compiled.
#[derive(Debug)]
pub(crate) struct PrefStage {
    /// The assembled term: PREFERRING … CASCADE … is prioritised
    /// accumulation, outer clause most important. A slot-bearing *shape*
    /// when the clauses are parameterized.
    term: Pref,
    has_params: bool,
    /// The engine-prepared query, for plain BMO statements — TOP and
    /// GROUP BY run through their dedicated engine entry points, and
    /// EXPLAIN plans the bound term itself. For a parameterized
    /// statement this is the compiled shape, patched per binding.
    prepared: Option<Prepared>,
    /// Preference-binding fingerprints seen by executions of this
    /// statement — the recurrence signal gating the whole-table
    /// warm-keep when the preference side is parameterized.
    seen_bindings: Mutex<HashSet<u64>>,
}

impl CompiledStatement {
    /// Compile `q` against the schema of `table`, the relation its FROM
    /// clause names.
    pub(crate) fn compile(engine: &Engine, q: &Query, table: &Relation) -> Self {
        let mut hard_has_params = false;
        if let Some(h) = &q.hard {
            h.walk_literals(&mut |l| hard_has_params |= matches!(l, Literal::Param(_)));
        }
        CompiledStatement {
            schema: table.schema_arc(),
            hard_has_params,
            pref: PrefStage::compile(engine, q, table.schema()),
        }
    }
}

impl PrefStage {
    fn compile(engine: &Engine, q: &Query, schema: &Schema) -> Result<Option<Self>, SqlError> {
        let parts = (q.preferring.iter().chain(&q.cascade))
            .map(|p| pref_to_shape_term(p, schema, &q.table))
            .collect::<Result<Vec<_>, _>>()?;
        if parts.is_empty() {
            return Ok(None);
        }
        let term = Pref::prior_all(parts)?;
        let plain = !q.explain && q.top.is_none() && q.group_by.is_empty();
        let prepared = plain.then(|| engine.prepare(&term, schema)).transpose()?;
        Ok(Some(PrefStage {
            has_params: term.has_params(),
            term,
            prepared,
            seen_bindings: Mutex::default(),
        }))
    }

    /// The concrete term this execution evaluates: the shape with its
    /// slots bound (a tree patch, no AST→term rewrite).
    pub(crate) fn bind_term(&self, params: &[Value]) -> Result<Pref, SqlError> {
        if self.has_params {
            self.term.bind_params(params).map_err(bind_error)
        } else {
            Ok(self.term.clone())
        }
    }

    /// The engine query this execution runs, for a plain BMO statement:
    /// the prepared query itself, or the compiled shape patched with the
    /// binding.
    pub(crate) fn bind_query(
        &self,
        params: &[Value],
    ) -> Result<Option<Cow<'_, Prepared>>, SqlError> {
        let Some(prepared) = &self.prepared else {
            return Ok(None);
        };
        Ok(Some(if params.is_empty() {
            Cow::Borrowed(prepared)
        } else {
            Cow::Owned(prepared.bind(params).map_err(bind_error)?)
        }))
    }

    /// Should an execution of `exec` under a *parameterized WHERE
    /// clause* keep the whole-table matrix resident? Every WHERE binding
    /// derives a fresh, never-seen predicate; with the table matrix
    /// warm, such views resolve through the window tier (row-id
    /// indirection over the cached matrix) instead of building a subset
    /// matrix per binding. When the preference side is parameterized
    /// too, the table matrix is per-preference-binding — only pay its
    /// O(table) materialization once a binding proves to recur, so a
    /// one-shot binding over a tiny view stays O(view).
    pub(crate) fn binding_recurs(&self, exec: &Prepared) -> bool {
        !self.has_params || self.recurred(exec.fingerprint())
    }

    /// Record a preference-binding fingerprint; `true` once it has been
    /// seen before (i.e. the binding recurs). The set is bounded —
    /// a pathological stream of one-shot bindings resets it rather than
    /// growing without bound.
    fn recurred(&self, fingerprint: u64) -> bool {
        let mut seen = self.seen_bindings.lock();
        if seen.len() > 1024 {
            seen.clear();
        }
        !seen.insert(fingerprint)
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

/// Map bind-time core errors onto parameter errors: a value that cannot
/// inhabit its slot is the caller's `$n` argument at fault
/// ([`SqlError::BadParam`] naming the parameter), and a slot the binding
/// does not reach — an ad hoc execution of parameterized SQL — is
/// [`SqlError::UnboundParam`].
fn bind_error<E: Into<SqlError>>(e: E) -> SqlError {
    match e.into() {
        SqlError::Core(CoreError::BadBinding { slot, value, .. })
        | SqlError::Query(QueryError::Core(CoreError::BadBinding { slot, value, .. })) => {
            SqlError::BadParam { index: slot, value }
        }
        SqlError::Core(CoreError::UnboundSlot { slot })
        | SqlError::Query(QueryError::Core(CoreError::UnboundSlot { slot })) => {
            SqlError::UnboundParam { index: slot }
        }
        other => other,
    }
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
