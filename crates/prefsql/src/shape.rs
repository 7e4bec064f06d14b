//! Statement *shapes*: the one AST→term rewrite of Preference SQL
//! atoms, performed once per (statement, schema).
//!
//! Every literal-carrying atom becomes a typed [`AtomShape`] capturing
//! the constructor, the target column's [`DataType`] and the mix of
//! constants (coerced now) and `$n` slots (coerced at bind time against
//! the same column type, by the same literal coercion). An atom without
//! placeholders is instantiated on the spot, so an unparameterized
//! statement's term is *identical* (same fingerprints, shared cache
//! entries) whether it runs ad hoc or prepared; an atom with
//! placeholders stays a [`ParamBase`](pref_core::param::ParamBase) leaf
//! that compiles, fingerprints and rewrites like any other — executions
//! just [bind](pref_core::eval::CompiledPref::bind) it instead of
//! re-running the rewriter.

use std::sync::Arc;

use pref_core::base::{
    Around, BaseRef, Between, Explicit, Highest, Lowest, Neg, Pos, PosNeg, PosPos,
};
use pref_core::param::{ParamBase, ParamSpec, SlotValue};
use pref_core::term::Pref;
use pref_core::CoreError;
use pref_relation::{DataType, Schema, Value};

use crate::ast::{Literal, PrefAtom, PrefExpr};
use crate::bind::value_to_literal;
use crate::error::SqlError;
use crate::rewrite::{column_type, literal_to_value};

/// Translate a preference expression into a [`Pref`] term: `AND` →
/// Pareto `⊗`, `PRIOR TO` → prioritised `&`, atoms → Def. 6/7 base
/// constructors, `$n` placeholders → typed slot shapes.
pub(crate) fn pref_to_shape_term(
    expr: &PrefExpr,
    schema: &Schema,
    table: &str,
) -> Result<Pref, SqlError> {
    let children = |cs: &[PrefExpr]| {
        cs.iter()
            .map(|c| pref_to_shape_term(c, schema, table))
            .collect::<Result<Vec<_>, _>>()
    };
    Ok(match expr {
        PrefExpr::Prior(cs) => Pref::prior_all(children(cs)?)?,
        PrefExpr::Pareto(cs) => Pref::pareto_all(children(cs)?)?,
        PrefExpr::Atom(atom) => atom_to_shape(atom, schema, table)?,
    })
}

/// One literal position of a shape: constants coerce now, placeholders
/// defer to bind time.
fn slot_value(lit: &Literal, column: &str, dtype: DataType) -> Result<SlotValue, SqlError> {
    Ok(match lit {
        Literal::Param(n) => SlotValue::Slot(*n),
        other => SlotValue::Const(literal_to_value(other, column, dtype)?),
    })
}

fn slot_values(
    lits: &[Literal],
    column: &str,
    dtype: DataType,
) -> Result<Vec<SlotValue>, SqlError> {
    lits.iter().map(|l| slot_value(l, column, dtype)).collect()
}

/// The one atom table: every [`PrefAtom`] to its base preference.
fn atom_to_shape(atom: &PrefAtom, schema: &Schema, table: &str) -> Result<Pref, SqlError> {
    let type_of = |attr: &str| column_type(schema, table, attr);
    let (attr, dtype, ctor) = match atom {
        PrefAtom::Pos { attr, values } => {
            let dt = type_of(attr)?;
            (attr, dt, ShapeCtor::Pos(slot_values(values, attr, dt)?))
        }
        PrefAtom::Neg { attr, values } => {
            let dt = type_of(attr)?;
            (attr, dt, ShapeCtor::Neg(slot_values(values, attr, dt)?))
        }
        PrefAtom::PosPos { attr, pos1, pos2 } => {
            let dt = type_of(attr)?;
            let ctor =
                ShapeCtor::PosPos(slot_values(pos1, attr, dt)?, slot_values(pos2, attr, dt)?);
            (attr, dt, ctor)
        }
        PrefAtom::PosNeg { attr, pos, neg } => {
            let dt = type_of(attr)?;
            let ctor = ShapeCtor::PosNeg(slot_values(pos, attr, dt)?, slot_values(neg, attr, dt)?);
            (attr, dt, ctor)
        }
        PrefAtom::Around { attr, target } => {
            let dt = type_of(attr)?;
            if !dt.is_ordinal() {
                return Err(SqlError::BadLiteral {
                    column: attr.clone(),
                    literal: format!("AROUND on non-ordinal column of type {dt}"),
                });
            }
            (attr, dt, ShapeCtor::Around(slot_value(target, attr, dt)?))
        }
        PrefAtom::Between { attr, low, up } => {
            let dt = type_of(attr)?;
            let ctor = ShapeCtor::Between(slot_value(low, attr, dt)?, slot_value(up, attr, dt)?);
            (attr, dt, ctor)
        }
        // LOWEST/HIGHEST carry no literals, hence no slots to shape.
        PrefAtom::Lowest { attr } => {
            type_of(attr)?;
            return Ok(Pref::base(attr.as_str(), Lowest::new()));
        }
        PrefAtom::Highest { attr } => {
            type_of(attr)?;
            return Ok(Pref::base(attr.as_str(), Highest::new()));
        }
        PrefAtom::Explicit { attr, edges } => {
            let dt = type_of(attr)?;
            let edges = edges
                .iter()
                .map(|(w, b)| Ok((slot_value(w, attr, dt)?, slot_value(b, attr, dt)?)))
                .collect::<Result<Vec<_>, SqlError>>()?;
            (attr, dt, ShapeCtor::Explicit(edges))
        }
    };
    let shape = AtomShape { dtype, ctor };
    let mut slots = Vec::new();
    shape.collect_slots(&mut slots);
    Ok(if slots.is_empty() {
        // Nothing to bind: the concrete constructor itself.
        Pref::base_ref(attr.as_str(), shape.instantiate(&[])?)
    } else {
        Pref::base(attr.as_str(), ParamBase::new(shape))
    })
}

/// The constructor half of a typed shape, mirroring [`PrefAtom`] with
/// [`SlotValue`] in every literal position.
#[derive(Debug, Clone)]
enum ShapeCtor {
    Pos(Vec<SlotValue>),
    Neg(Vec<SlotValue>),
    PosPos(Vec<SlotValue>, Vec<SlotValue>),
    PosNeg(Vec<SlotValue>, Vec<SlotValue>),
    Around(SlotValue),
    Between(SlotValue, SlotValue),
    Explicit(Vec<(SlotValue, SlotValue)>),
}

/// A Preference SQL atom's shape: constructor + target column type.
/// Bind-time values coerce against `dtype` through the inline-literal
/// coercion itself ([`literal_to_value`]); a [`Value::Date`] stays a
/// typed date literal on the way, no string round-trip.
#[derive(Debug, Clone)]
struct AtomShape {
    dtype: DataType,
    ctor: ShapeCtor,
}

impl AtomShape {
    fn resolve(&self, sv: &SlotValue, values: &[Value]) -> Result<Value, CoreError> {
        match sv {
            SlotValue::Const(v) => Ok(v.clone()),
            SlotValue::Slot(n) => {
                // A bound value coerces exactly like the inline literal
                // it stands for.
                let v = sv.resolve(values)?;
                value_to_literal(v, *n)
                    .and_then(|lit| literal_to_value(&lit, "", self.dtype))
                    .map_err(|_| CoreError::BadBinding {
                        slot: *n,
                        value: v.to_string(),
                        expected: format!("a value for a {} column", self.dtype),
                    })
            }
        }
    }

    fn resolve_all(&self, svs: &[SlotValue], values: &[Value]) -> Result<Vec<Value>, CoreError> {
        svs.iter().map(|sv| self.resolve(sv, values)).collect()
    }
}

fn fmt_set(svs: &[SlotValue]) -> String {
    let body: Vec<String> = svs.iter().map(|s| s.to_string()).collect();
    format!("{{{}}}", body.join(", "))
}

impl ParamSpec for AtomShape {
    fn ctor_name(&self) -> &'static str {
        match &self.ctor {
            ShapeCtor::Pos(_) => "POS",
            ShapeCtor::Neg(_) => "NEG",
            ShapeCtor::PosPos(..) => "POS/POS",
            ShapeCtor::PosNeg(..) => "POS/NEG",
            ShapeCtor::Around(_) => "AROUND",
            ShapeCtor::Between(..) => "BETWEEN",
            ShapeCtor::Explicit(_) => "EXPLICIT",
        }
    }

    fn shape_params(&self) -> String {
        match &self.ctor {
            ShapeCtor::Pos(vs) | ShapeCtor::Neg(vs) => fmt_set(vs),
            ShapeCtor::PosPos(a, b) | ShapeCtor::PosNeg(a, b) => {
                format!("{}; {}", fmt_set(a), fmt_set(b))
            }
            ShapeCtor::Around(t) => t.to_string(),
            ShapeCtor::Between(lo, up) => format!("[{lo}, {up}]"),
            ShapeCtor::Explicit(edges) => {
                let body: Vec<String> = edges.iter().map(|(w, b)| format!("{w} < {b}")).collect();
                format!("{{{}}}", body.join(", "))
            }
        }
    }

    fn numerical_hint(&self) -> bool {
        matches!(self.ctor, ShapeCtor::Around(_) | ShapeCtor::Between(..))
    }

    fn collect_slots(&self, out: &mut Vec<usize>) {
        let mut push = |sv: &SlotValue| {
            if let Some(n) = sv.slot() {
                out.push(n);
            }
        };
        match &self.ctor {
            ShapeCtor::Pos(vs) | ShapeCtor::Neg(vs) => vs.iter().for_each(&mut push),
            ShapeCtor::PosPos(a, b) | ShapeCtor::PosNeg(a, b) => {
                a.iter().for_each(&mut push);
                b.iter().for_each(&mut push);
            }
            ShapeCtor::Around(t) => push(t),
            ShapeCtor::Between(lo, up) => {
                push(lo);
                push(up);
            }
            ShapeCtor::Explicit(edges) => {
                for (w, b) in edges {
                    push(w);
                    push(b);
                }
            }
        }
    }

    fn instantiate(&self, values: &[Value]) -> Result<BaseRef, CoreError> {
        Ok(match &self.ctor {
            ShapeCtor::Pos(vs) => Arc::new(Pos::new(self.resolve_all(vs, values)?)),
            ShapeCtor::Neg(vs) => Arc::new(Neg::new(self.resolve_all(vs, values)?)),
            ShapeCtor::PosPos(a, b) => Arc::new(PosPos::new(
                self.resolve_all(a, values)?,
                self.resolve_all(b, values)?,
            )?),
            ShapeCtor::PosNeg(a, b) => Arc::new(PosNeg::new(
                self.resolve_all(a, values)?,
                self.resolve_all(b, values)?,
            )?),
            ShapeCtor::Around(t) => Arc::new(Around::new(self.resolve(t, values)?)),
            ShapeCtor::Between(lo, up) => Arc::new(Between::new(
                self.resolve(lo, values)?,
                self.resolve(up, values)?,
            )?),
            ShapeCtor::Explicit(edges) => Arc::new(Explicit::new(
                edges
                    .iter()
                    .map(|(w, b)| Ok((self.resolve(w, values)?, self.resolve(b, values)?)))
                    .collect::<Result<Vec<_>, CoreError>>()?,
            )?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::rewrite::pref_to_term;
    use pref_relation::Date;

    fn schema() -> Schema {
        Schema::new(vec![
            ("make", DataType::Str),
            ("price", DataType::Int),
            ("rating", DataType::Float),
            ("start_date", DataType::Date),
        ])
        .unwrap()
    }

    fn shape_of(sql: &str) -> Pref {
        let q = parse(sql).unwrap();
        pref_to_shape_term(&q.preferring.unwrap(), &schema(), "t").unwrap()
    }

    #[test]
    fn shapes_print_slots_in_paper_notation() {
        let p = shape_of("SELECT * FROM t PREFERRING price AROUND $1");
        assert_eq!(p.to_string(), "AROUND(price; $1)");
        assert!(p.has_params());

        let p =
            shape_of("SELECT * FROM t PREFERRING make IN ('VW', $2) AND price BETWEEN $1 AND 9");
        assert_eq!(
            p.to_string(),
            "(POS(make; {'VW', $2}) ⊗ BETWEEN(price; [$1, 9]))"
        );
    }

    #[test]
    fn unparameterized_expressions_delegate_to_the_plain_rewriter() {
        // One atom table serves both spellings: without placeholders the
        // shape instantiates on the spot into the concrete constructors
        // (the terms — hence fingerprints — inline literals always had).
        let q = parse("SELECT * FROM t PREFERRING price AROUND 5 AND LOWEST(rating)").unwrap();
        let expr = q.preferring.unwrap();
        let shaped = pref_to_shape_term(&expr, &schema(), "t").unwrap();
        let plain = pref_to_term(&expr, &schema(), "t").unwrap();
        assert_eq!(shaped, plain);
        assert!(!shaped.has_params());
        assert_eq!(
            shaped,
            pref_core::prelude::around("price", 5).pareto(pref_core::prelude::lowest("rating"))
        );
    }

    #[test]
    fn binding_coerces_against_the_column_type() {
        // Int widens for a Float column; a typed Date binds directly.
        let p = shape_of("SELECT * FROM t PREFERRING rating AROUND $1");
        let b = p.bind_params(&[Value::from(3)]).unwrap();
        assert_eq!(b.to_string(), "AROUND(rating; 3)");

        let p = shape_of("SELECT * FROM t PREFERRING start_date AROUND $1");
        let d = Date::parse("2001/11/23").unwrap();
        let b = p.bind_params(&[Value::from(d)]).unwrap();
        assert_eq!(b.to_string(), "AROUND(start_date; 2001/11/23)");
        // …and a string still parses, like an inline literal.
        let b = p.bind_params(&[Value::from("2001/11/24")]).unwrap();
        assert!(b.to_string().contains("2001/11/24"));
    }

    #[test]
    fn bad_bindings_report_the_slot() {
        let p = shape_of("SELECT * FROM t PREFERRING price AROUND $1");
        assert!(matches!(
            p.bind_params(&[Value::from("cheap")]),
            Err(CoreError::BadBinding { slot: 1, .. })
        ));
        assert!(matches!(
            p.bind_params(&[]),
            Err(CoreError::UnboundSlot { slot: 1 })
        ));
    }

    #[test]
    fn constructor_validation_defers_to_bind_time() {
        // POS/NEG disjointness cannot be checked while a slot is open;
        // a binding that overlaps surfaces the constructor's own error.
        let p = shape_of("SELECT * FROM t PREFERRING make = $1 ELSE make <> 'VW'");
        assert!(p.bind_params(&[Value::from("Opel")]).is_ok());
        assert!(matches!(
            p.bind_params(&[Value::from("VW")]),
            Err(CoreError::OverlappingSets { .. })
        ));
    }

    #[test]
    fn bound_shape_matches_the_fresh_rewrite() {
        // prepare+bind and parse-with-inline-literals meet in the same
        // term, hence the same compiled fingerprint.
        let shape = shape_of("SELECT * FROM t PREFERRING price AROUND $1 AND LOWEST(rating)");
        let bound = shape.bind_params(&[Value::from(40_000)]).unwrap();
        let q = parse("SELECT * FROM t PREFERRING price AROUND 40000 AND LOWEST(rating)").unwrap();
        let fresh = pref_to_term(&q.preferring.unwrap(), &schema(), "t").unwrap();
        assert_eq!(bound, fresh);
    }
}
