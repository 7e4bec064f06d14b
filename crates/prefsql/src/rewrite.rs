//! Rewriting parsed Preference SQL into the preference algebra and hard
//! predicates — the "clever rewriting of Preference SQL queries" of §6.1,
//! except that we target the native algebra instead of SQL92.

use pref_core::base::{Around, Between, Explicit, Highest, Lowest, Neg, Pos, PosNeg, PosPos};
use pref_core::term::Pref;
use pref_query::quality::{QualityCond, QualityFilter};
use pref_relation::{attr, DataType, Date, Schema, Tuple, Value};

use crate::ast::{CmpOp, HardExpr, Literal, PrefAtom, PrefExpr, QualityCondAst};
use crate::bind::bind_typed;
use crate::error::SqlError;

/// Coerce a literal against a column type. String literals coerce to
/// dates for Date columns (the paper writes `'2001/11/23'`), integers
/// widen to floats for Float columns.
pub fn literal_to_value(lit: &Literal, column: &str, dtype: DataType) -> Result<Value, SqlError> {
    let bad = || SqlError::BadLiteral {
        column: column.to_string(),
        literal: lit.to_string(),
    };
    Ok(match (lit, dtype) {
        // A placeholder this deep means nobody bound it: surface the
        // dedicated error, not a type mismatch.
        (Literal::Param(n), _) => return Err(SqlError::UnboundParam { index: *n }),
        (Literal::Int(v), DataType::Int) => Value::from(*v),
        (Literal::Int(v), DataType::Float) => Value::from(*v as f64),
        (Literal::Float(v), DataType::Float) => Value::from(*v),
        (Literal::Str(s), DataType::Str) => Value::from(s.as_str()),
        (Literal::Str(s), DataType::Date) => Value::from(Date::parse(s).ok_or_else(bad)?),
        (Literal::Date(d), DataType::Date) => Value::from(*d),
        (Literal::Bool(b), DataType::Bool) => Value::from(*b),
        _ => return Err(bad()),
    })
}

pub(crate) fn column_type(
    schema: &Schema,
    table: &str,
    column: &str,
) -> Result<DataType, SqlError> {
    schema
        .field(&attr(column))
        .map(|f| f.dtype)
        .ok_or_else(|| SqlError::UnknownColumn {
            table: table.to_string(),
            column: column.to_string(),
        })
}

fn values(
    lits: &[Literal],
    schema: &Schema,
    table: &str,
    column: &str,
) -> Result<Vec<Value>, SqlError> {
    let dt = column_type(schema, table, column)?;
    lits.iter()
        .map(|l| literal_to_value(l, column, dt))
        .collect()
}

/// Translate a preference expression into a [`Pref`] term: `AND` →
/// Pareto `⊗`, `PRIOR TO` → prioritised `&`, atoms → Def. 6/7 base
/// constructors. Terms are concrete: a `$n` placeholder still in `expr`
/// has nothing to stand for here and is reported as
/// [`SqlError::UnboundParam`] (a prepared statement substitutes its
/// values into the AST first, `PrefExpr::map_literals`).
pub fn pref_to_term(expr: &PrefExpr, schema: &Schema, table: &str) -> Result<Pref, SqlError> {
    let children = |cs: &[PrefExpr]| {
        cs.iter()
            .map(|c| pref_to_term(c, schema, table))
            .collect::<Result<Vec<_>, _>>()
    };
    Ok(match expr {
        PrefExpr::Prior(cs) => Pref::prior_all(children(cs)?)?,
        PrefExpr::Pareto(cs) => Pref::pareto_all(children(cs)?)?,
        PrefExpr::Atom(atom) => atom_to_term(atom, schema, table)?,
    })
}

/// The one atom table: every [`PrefAtom`] to its base preference, each
/// literal coerced against the atom's column type.
fn atom_to_term(atom: &PrefAtom, schema: &Schema, table: &str) -> Result<Pref, SqlError> {
    let set = |attr: &str, lits: &[Literal]| values(lits, schema, table, attr);
    let one =
        |attr: &str, lit: &Literal| literal_to_value(lit, attr, column_type(schema, table, attr)?);
    Ok(match atom {
        PrefAtom::Pos { attr, values } => Pref::base(attr.as_str(), Pos::new(set(attr, values)?)),
        PrefAtom::Neg { attr, values } => Pref::base(attr.as_str(), Neg::new(set(attr, values)?)),
        PrefAtom::PosPos { attr, pos1, pos2 } => Pref::base(
            attr.as_str(),
            PosPos::new(set(attr, pos1)?, set(attr, pos2)?)?,
        ),
        PrefAtom::PosNeg { attr, pos, neg } => Pref::base(
            attr.as_str(),
            PosNeg::new(set(attr, pos)?, set(attr, neg)?)?,
        ),
        PrefAtom::Around { attr, target } => {
            let dt = column_type(schema, table, attr)?;
            if !dt.is_ordinal() {
                return Err(SqlError::BadLiteral {
                    column: attr.clone(),
                    literal: format!("AROUND on non-ordinal column of type {dt}"),
                });
            }
            Pref::base(
                attr.as_str(),
                Around::new(literal_to_value(target, attr, dt)?),
            )
        }
        PrefAtom::Between { attr, low, up } => Pref::base(
            attr.as_str(),
            Between::new(one(attr, low)?, one(attr, up)?)?,
        ),
        PrefAtom::Lowest { attr } => {
            column_type(schema, table, attr)?;
            Pref::base(attr.as_str(), Lowest::new())
        }
        PrefAtom::Highest { attr } => {
            column_type(schema, table, attr)?;
            Pref::base(attr.as_str(), Highest::new())
        }
        PrefAtom::Explicit { attr, edges } => {
            let edges = edges
                .iter()
                .map(|(w, b)| Ok((one(attr, w)?, one(attr, b)?)))
                .collect::<Result<Vec<_>, SqlError>>()?;
            Pref::base(attr.as_str(), Explicit::new(edges)?)
        }
    })
}

/// A compiled hard-selection predicate.
pub type RowPredicate = Box<dyn Fn(&Tuple) -> bool + Send + Sync>;

/// Compile a hard condition to a row predicate with pre-resolved column
/// indices (the exact-match world of SQL92).
pub fn hard_to_predicate(
    expr: &HardExpr,
    schema: &Schema,
    table: &str,
) -> Result<RowPredicate, SqlError> {
    Ok(match expr {
        HardExpr::Cmp(a, op, lit) => {
            let col = schema
                .index_of(&attr(a))
                .ok_or_else(|| SqlError::UnknownColumn {
                    table: table.to_string(),
                    column: a.clone(),
                })?;
            let dt = column_type(schema, table, a)?;
            let v = literal_to_value(lit, a, dt)?;
            let op = *op;
            Box::new(move |t: &Tuple| {
                // SQL three-valued logic collapsed: NULL comparisons fail.
                match t[col].sql_cmp(&v) {
                    None => false,
                    Some(ord) => match op {
                        CmpOp::Eq => ord.is_eq(),
                        CmpOp::Ne => ord.is_ne(),
                        CmpOp::Lt => ord.is_lt(),
                        CmpOp::Le => ord.is_le(),
                        CmpOp::Gt => ord.is_gt(),
                        CmpOp::Ge => ord.is_ge(),
                    },
                }
            })
        }
        HardExpr::Between(a, lo, hi) => {
            let col = schema
                .index_of(&attr(a))
                .ok_or_else(|| SqlError::UnknownColumn {
                    table: table.to_string(),
                    column: a.clone(),
                })?;
            let dt = column_type(schema, table, a)?;
            let lo = literal_to_value(lo, a, dt)?;
            let hi = literal_to_value(hi, a, dt)?;
            Box::new(move |t: &Tuple| {
                matches!(t[col].sql_cmp(&lo), Some(o) if o.is_ge())
                    && matches!(t[col].sql_cmp(&hi), Some(o) if o.is_le())
            })
        }
        HardExpr::In(a, lits, negated) => {
            let col = schema
                .index_of(&attr(a))
                .ok_or_else(|| SqlError::UnknownColumn {
                    table: table.to_string(),
                    column: a.clone(),
                })?;
            let set = values(lits, schema, table, a)?;
            let negated = *negated;
            Box::new(move |t: &Tuple| set.contains(&t[col]) != negated)
        }
        HardExpr::And(l, r) => {
            let l = hard_to_predicate(l, schema, table)?;
            let r = hard_to_predicate(r, schema, table)?;
            Box::new(move |t: &Tuple| l(t) && r(t))
        }
        HardExpr::Or(l, r) => {
            let l = hard_to_predicate(l, schema, table)?;
            let r = hard_to_predicate(r, schema, table)?;
            Box::new(move |t: &Tuple| l(t) || r(t))
        }
        HardExpr::Not(inner) => {
            let inner = hard_to_predicate(inner, schema, table)?;
            Box::new(move |t: &Tuple| !inner(t))
        }
    })
}

/// Translate BUT ONLY constraints into a [`QualityFilter`].
pub fn quality_to_filter(
    conds: &[QualityCondAst],
    schema: &Schema,
    table: &str,
    params: &[Value],
) -> Result<QualityFilter, SqlError> {
    let mut filter = QualityFilter::new();
    for c in conds {
        column_type(schema, table, &c.attr)?;
        let bound = bind_typed(&c.bound, &c.attr, Some(DataType::Float), params)?;
        // Coerced to a Float value, which always has an `f64`.
        let bound = literal_to_value(&bound, &c.attr, DataType::Float)?.as_f64();
        let bound = bound.unwrap_or_default();
        filter = filter.and(match c.level {
            true => {
                let level = bound - f64::from(u8::from(c.strict));
                QualityCond::LevelLe(attr(&c.attr), level.max(0.0) as u32)
            }
            false => QualityCond::DistanceLe(attr(&c.attr), bound),
        });
    }
    Ok(filter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use pref_relation::rel;

    fn cars_schema() -> Schema {
        Schema::new(vec![
            ("make", DataType::Str),
            ("price", DataType::Int),
            ("power", DataType::Int),
            ("color", DataType::Str),
            ("mileage", DataType::Int),
            ("category", DataType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn car_query_rewrites_to_paper_notation() {
        let q = parse(
            "SELECT * FROM car PREFERRING category = 'roadster' ELSE category <> 'passenger' \
             AND price AROUND 40000 AND HIGHEST(power)",
        )
        .unwrap();
        let term = pref_to_term(&q.preferring.unwrap(), &cars_schema(), "car").unwrap();
        assert_eq!(
            term.to_string(),
            "(POS/NEG(category; {'roadster'}; {'passenger'}) ⊗ AROUND(price; 40000) ⊗ HIGHEST(power))"
        );
    }

    #[test]
    fn prior_to_becomes_prioritisation() {
        let q = parse(
            "SELECT * FROM car PREFERRING color IN ('black','white') PRIOR TO price AROUND 10000",
        )
        .unwrap();
        let term = pref_to_term(&q.preferring.unwrap(), &cars_schema(), "car").unwrap();
        assert!(matches!(term, Pref::Prior(_)));
    }

    #[test]
    fn unknown_column_is_rejected() {
        let q = parse("SELECT * FROM car PREFERRING LOWEST(wheels)").unwrap();
        let err = pref_to_term(&q.preferring.unwrap(), &cars_schema(), "car").unwrap_err();
        assert!(matches!(err, SqlError::UnknownColumn { .. }));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let q = parse("SELECT * FROM car PREFERRING price = 'cheap'").unwrap();
        let err = pref_to_term(&q.preferring.unwrap(), &cars_schema(), "car").unwrap_err();
        assert!(matches!(err, SqlError::BadLiteral { .. }));
        let q = parse("SELECT * FROM car PREFERRING make AROUND 5").unwrap();
        assert!(pref_to_term(&q.preferring.unwrap(), &cars_schema(), "car").is_err());
    }

    #[test]
    fn date_literals_coerce_for_date_columns() {
        let schema = Schema::new(vec![("start_date", DataType::Date)]).unwrap();
        let q = parse("SELECT * FROM trips PREFERRING start_date AROUND '2001/11/23'").unwrap();
        let term = pref_to_term(&q.preferring.unwrap(), &schema, "trips").unwrap();
        assert!(term.to_string().contains("2001/11/23"));
    }

    #[test]
    fn hard_predicate_filters_rows() {
        let r = rel! {
            ("make": Str, "price": Int);
            ("Opel", 9_000), ("BMW", 30_000), ("Opel", 25_000),
        };
        let q = parse("SELECT * FROM car WHERE make = 'Opel' AND price < 20000").unwrap();
        let pred = hard_to_predicate(&q.hard.unwrap(), r.schema(), "car").unwrap();
        let kept: Vec<usize> = (0..r.len()).filter(|&i| pred(r.row(i))).collect();
        assert_eq!(kept, vec![0]);
    }

    #[test]
    fn hard_in_and_not() {
        let r = rel! {
            ("make": Str, "price": Int);
            ("Opel", 9_000), ("BMW", 30_000), ("VW", 25_000),
        };
        let q = parse("SELECT * FROM car WHERE NOT make IN ('BMW', 'VW')").unwrap();
        let pred = hard_to_predicate(&q.hard.unwrap(), r.schema(), "car").unwrap();
        let kept: Vec<usize> = (0..r.len()).filter(|&i| pred(r.row(i))).collect();
        assert_eq!(kept, vec![0]);
    }

    #[test]
    fn numeric_widening_in_hard_comparisons() {
        let r = rel! { ("score": Float); (1.5,), (2.5,) };
        let q = parse("SELECT * FROM t WHERE score > 2").unwrap();
        let pred = hard_to_predicate(&q.hard.unwrap(), r.schema(), "t").unwrap();
        let kept: Vec<usize> = (0..r.len()).filter(|&i| pred(r.row(i))).collect();
        assert_eq!(kept, vec![1]);
    }
}
