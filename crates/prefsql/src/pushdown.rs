//! Stage 1 of the pipeline — hard selection (the exact-match world) —
//! and its pushdown past the winnow.
//!
//! With no WHERE clause the whole pipeline runs on a borrow of the
//! catalog table — row indices flow through the BMO stage and only the
//! final result is materialized. A WHERE clause produces a zero-copy
//! *row-id view* (shared tuple storage, O(k) id construction) carrying
//! `(table generation, predicate fingerprint)` lineage, so the engine
//! serves its score matrices warm instead of rebuilding per call: a
//! repeated statement resolves via the lineage key, and even a
//! *first-time* WHERE clause over a table whose full matrix is cached
//! resolves by windowing that matrix onto the view
//! (`CacheStatus::WindowHit`).

use std::borrow::Cow;

use pref_relation::{Attr, Relation, Schema};

use crate::ast::HardExpr;
use crate::error::SqlError;
use crate::rewrite::hard_to_predicate;

/// The candidate set `σ_C(table)` of a statement whose (bound) WHERE
/// clause is `hard`, and whether the selection was *pushed down*.
///
/// Hard-selection pushdown (Chomicki-style σ/ω commutation): when every
/// WHERE attribute is CONSTANT-constrained in the schema's registry, the
/// predicate evaluates identically on every stored tuple, so σ_C(R) is
/// all of R or none of it and σ_C(ω_P(R)) = ω_P(σ_C(R)). In the all-rows
/// case the winnow runs on the base table itself — reusing its cached
/// matrices and results instead of deriving a same-content view.
pub(crate) fn candidates<'t>(
    table: &'t Relation,
    hard: Option<&HardExpr>,
    table_name: &str,
) -> Result<(Cow<'t, Relation>, bool), SqlError> {
    let Some(h) = hard else {
        return Ok((Cow::Borrowed(table), false));
    };
    let pushed = selection_commutes_for(h, table.schema());
    let pred = hard_to_predicate(h, table.schema(), table_name)?;
    let base = if pushed && table.iter().next().is_none_or(&pred) {
        Cow::Borrowed(table)
    } else if pushed {
        Cow::Owned(table.select_derived(|_| false, h.fingerprint()))
    } else {
        Cow::Owned(table.select_derived(|t| pred(t), h.fingerprint()))
    };
    Ok((base, pushed))
}

/// The executor-side face of the planner's commutation gate: collect the
/// WHERE clause's column names and ask `pref_query` whether a selection
/// over exactly those attributes commutes with any winnow under
/// `schema`'s constraint registry. Unknown columns resolve to `false`
/// here — the predicate builder reports them properly right after.
fn selection_commutes_for(h: &HardExpr, schema: &Schema) -> bool {
    let mut cols: Vec<String> = Vec::new();
    h.walk_columns(&mut |c| {
        if !cols.iter().any(|seen| seen == c) {
            cols.push(c.to_string());
        }
    });
    let attrs: Vec<Attr> = cols.iter().map(|c| c.as_str().into()).collect();
    attrs.iter().all(|a| schema.index_of(a).is_some())
        && pref_query::selection_commutes(schema, attrs.iter())
}
