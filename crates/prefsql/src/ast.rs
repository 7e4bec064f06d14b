//! Abstract syntax of Preference SQL queries.
//!
//! A query is standard SQL92 selection/projection (the exact-match world)
//! extended by the soft-constraint clauses the paper describes in §6.1:
//! `PREFERRING … [GROUP BY …] {CASCADE …} [BUT ONLY …]`.

use std::fmt;

use pref_relation::Date;

/// A parsed Preference SQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `EXPLAIN SELECT …`: plan without executing.
    pub explain: bool,
    pub select: SelectList,
    pub table: String,
    pub hard: Option<HardExpr>,
    /// The PREFERRING clause.
    pub preferring: Option<PrefExpr>,
    /// `GROUP BY` attributes of the preference (Def. 16 grouping).
    pub group_by: Vec<String>,
    /// CASCADE clauses, outermost first — each is prioritised below
    /// everything before it.
    pub cascade: Vec<PrefExpr>,
    /// The BUT ONLY quality constraints.
    pub but_only: Vec<QualityCondAst>,
    /// LIMIT (truncates the BMO result); may be a `$n` placeholder.
    pub limit: Option<LimitSpec>,
    /// `SELECT TOP k`: the §6.2 k-best model — BMO first, then further
    /// quality levels until k rows are returned; may be a `$n`
    /// placeholder.
    pub top: Option<LimitSpec>,
}

/// A row-count position (`LIMIT k` / `TOP k`): a literal count or a
/// prepared statement's `$n` placeholder bound at execute time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitSpec {
    /// A literal count.
    Count(usize),
    /// `$n` placeholder, 1-based; must bind to a non-negative integer.
    Param(usize),
}

impl LimitSpec {
    fn collect_params(&self, out: &mut Vec<usize>) {
        if let LimitSpec::Param(n) = self {
            out.push(*n);
        }
    }
}

impl fmt::Display for LimitSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LimitSpec::Count(k) => write!(f, "{k}"),
            LimitSpec::Param(n) => write!(f, "${n}"),
        }
    }
}

/// A parsed `DELETE FROM <table> [WHERE <hard>]` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    pub table: String,
    /// Rows to remove; `None` empties the table.
    pub hard: Option<HardExpr>,
}

/// Any single parsed statement: a (preference) query, or a mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Query(Box<Query>),
    Delete(DeleteStmt),
}

/// Projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectList {
    Star,
    Columns(Vec<String>),
}

/// Hard (exact-match) selection conditions.
#[derive(Debug, Clone, PartialEq)]
pub enum HardExpr {
    Cmp(String, CmpOp, Literal),
    Between(String, Literal, Literal),
    In(String, Vec<Literal>, /*negated*/ bool),
    And(Box<HardExpr>, Box<HardExpr>),
    Or(Box<HardExpr>, Box<HardExpr>),
    Not(Box<HardExpr>),
}

/// Comparison operators of the hard world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Literal values as parsed (dates arrive as strings and are coerced
/// against the column type during rewriting). `Param` is a prepared
/// statement's `$n` placeholder: it survives parsing and is substituted
/// per execution, in every clause, by the literal its value stands for
/// ([`crate::executor::PreparedStatement::execute`]); evaluating it
/// unbound is an error.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    /// A typed calendar date. The parser never produces this (dates are
    /// written as strings and coerced against the column type); it
    /// exists so a bound [`pref_relation::Value::Date`] parameter stays
    /// typed instead of round-tripping through its string rendering.
    Date(Date),
    /// `$n` placeholder, 1-based.
    Param(usize),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Float(v) => write!(f, "{v}"),
            Literal::Str(s) => write!(f, "'{s}'"),
            Literal::Bool(b) => write!(f, "{b}"),
            Literal::Date(d) => write!(f, "'{d}'"),
            Literal::Param(n) => write!(f, "${n}"),
        }
    }
}

/// Soft-constraint (preference) expressions: `AND` is Pareto
/// accumulation, `PRIOR TO` is prioritised accumulation.
#[derive(Debug, Clone, PartialEq)]
pub enum PrefExpr {
    Prior(Vec<PrefExpr>),
    Pareto(Vec<PrefExpr>),
    Atom(PrefAtom),
}

/// Base-preference atoms.
#[derive(Debug, Clone, PartialEq)]
pub enum PrefAtom {
    /// `attr = v` / `attr IN (…)` → POS.
    Pos { attr: String, values: Vec<Literal> },
    /// `attr <> v` / `attr NOT IN (…)` → NEG.
    Neg { attr: String, values: Vec<Literal> },
    /// `pos-atom ELSE pos-atom` → POS/POS.
    PosPos {
        attr: String,
        pos1: Vec<Literal>,
        pos2: Vec<Literal>,
    },
    /// `pos-atom ELSE neg-atom` → POS/NEG.
    PosNeg {
        attr: String,
        pos: Vec<Literal>,
        neg: Vec<Literal>,
    },
    /// `attr AROUND z`.
    Around { attr: String, target: Literal },
    /// `attr BETWEEN lo AND hi`.
    Between {
        attr: String,
        low: Literal,
        up: Literal,
    },
    /// `LOWEST(attr)`.
    Lowest { attr: String },
    /// `HIGHEST(attr)`.
    Highest { attr: String },
    /// `EXPLICIT(attr, (worse, better), …)`.
    Explicit {
        attr: String,
        edges: Vec<(Literal, Literal)>,
    },
}

/// One BUT ONLY constraint: `LEVEL(attr)` or `DISTANCE(attr)` `<=` a
/// numeric literal or a `$n` placeholder, resolved when the statement
/// runs. A strict `<` lowers a LEVEL bound by one and reads as `<=` for
/// DISTANCE.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityCondAst {
    /// `LEVEL` rather than `DISTANCE`.
    pub level: bool,
    pub attr: String,
    pub strict: bool,
    pub bound: Literal,
}

impl PrefExpr {
    /// Number of base-preference atoms (used by tests and stats).
    pub fn atom_count(&self) -> usize {
        match self {
            PrefExpr::Atom(_) => 1,
            PrefExpr::Prior(children) | PrefExpr::Pareto(children) => {
                children.iter().map(PrefExpr::atom_count).sum()
            }
        }
    }
}

// ---- literal traversal (prepared-statement machinery) ------------------

impl Query {
    /// Visit every literal in the query (hard conditions, preference
    /// atoms, quality bounds).
    pub fn walk_literals(&self, f: &mut impl FnMut(&Literal)) {
        if let Some(h) = &self.hard {
            h.walk_literals(f);
        }
        if let Some(p) = &self.preferring {
            p.walk_literals(f);
        }
        for c in &self.cascade {
            c.walk_literals(f);
        }
        self.but_only.iter().for_each(|q| f(&q.bound));
    }

    /// Every `$n` placeholder index this query reads, across literals
    /// and the `LIMIT`/`TOP` positions (sorted, deduplicated). A gap in
    /// the sequence from `$1` to the highest index means a slot a binding can never
    /// reach — [`crate::executor::PrefSql::prepare`] rejects it.
    pub fn param_slots(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.walk_literals(&mut |l| {
            if let Literal::Param(n) = l {
                out.push(*n);
            }
        });
        if let Some(t) = &self.top {
            t.collect_params(&mut out);
        }
        if let Some(l) = &self.limit {
            l.collect_params(&mut out);
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl HardExpr {
    /// A stable structural fingerprint of this hard condition: equal for
    /// structurally equal conditions (same shape, columns, operators and
    /// literal values), distinct with overwhelming probability otherwise,
    /// and reproducible across processes. This is the *predicate
    /// fingerprint* of the derived view a WHERE clause produces
    /// ([`pref_relation::Relation::select_derived`]) — the key that lets
    /// the engine recognize a repeated WHERE over an unchanged table.
    ///
    /// It hashes the tree's derived `Debug` rendering, the rule the
    /// preference clauses of a `$n` statement use too: variant names tag
    /// every node and literal type, strings are quoted and escaped, and
    /// floats keep their sign (`-0.0`). Placeholders must be bound before
    /// fingerprinting (the executor fingerprints the *bound* condition);
    /// an unbound `$n` fingerprints by its index, which is still sound —
    /// it simply never matches a bound variant.
    pub fn fingerprint(&self) -> u64 {
        pref_relation::predicate_fingerprint(format!("{self:?}").as_bytes())
    }

    /// Visit every column name the condition reads — the input to the
    /// planner's selection-commutation gate (σ_C commutes with `σ[P]`
    /// only when every attribute of C is constraint-uniform).
    pub fn walk_columns(&self, f: &mut impl FnMut(&str)) {
        match self {
            HardExpr::Cmp(a, _, _) | HardExpr::Between(a, _, _) | HardExpr::In(a, _, _) => f(a),
            HardExpr::And(a, b) | HardExpr::Or(a, b) => {
                a.walk_columns(f);
                b.walk_columns(f);
            }
            HardExpr::Not(inner) => inner.walk_columns(f),
        }
    }

    /// Visit every literal of the condition.
    pub fn walk_literals(&self, f: &mut impl FnMut(&Literal)) {
        match self {
            HardExpr::Cmp(_, _, l) => f(l),
            HardExpr::Between(_, lo, hi) => {
                f(lo);
                f(hi);
            }
            HardExpr::In(_, ls, _) => ls.iter().for_each(f),
            HardExpr::And(a, b) | HardExpr::Or(a, b) => {
                a.walk_literals(f);
                b.walk_literals(f);
            }
            HardExpr::Not(inner) => inner.walk_literals(f),
        }
    }

    /// Rebuild the condition with every literal passed through `f` —
    /// the WHERE half of parameter binding.
    pub fn map_literals<E>(
        &self,
        f: &mut impl FnMut(&Literal) -> Result<Literal, E>,
    ) -> Result<HardExpr, E> {
        Ok(match self {
            HardExpr::Cmp(a, op, l) => HardExpr::Cmp(a.clone(), *op, f(l)?),
            HardExpr::Between(a, lo, hi) => HardExpr::Between(a.clone(), f(lo)?, f(hi)?),
            HardExpr::In(a, ls, neg) => HardExpr::In(
                a.clone(),
                ls.iter().map(&mut *f).collect::<Result<_, E>>()?,
                *neg,
            ),
            HardExpr::And(a, b) => {
                HardExpr::And(Box::new(a.map_literals(f)?), Box::new(b.map_literals(f)?))
            }
            HardExpr::Or(a, b) => {
                HardExpr::Or(Box::new(a.map_literals(f)?), Box::new(b.map_literals(f)?))
            }
            HardExpr::Not(inner) => HardExpr::Not(Box::new(inner.map_literals(f)?)),
        })
    }
}

impl PrefExpr {
    /// Visit every literal of the expression.
    pub fn walk_literals(&self, f: &mut impl FnMut(&Literal)) {
        match self {
            PrefExpr::Prior(children) | PrefExpr::Pareto(children) => {
                children.iter().for_each(|c| c.walk_literals(f));
            }
            PrefExpr::Atom(a) => a.walk_literals(f),
        }
    }

    /// Rebuild the expression with every literal passed through `f`,
    /// which also sees the column the literal belongs to — the
    /// PREFERRING/CASCADE half of parameter binding.
    pub fn map_literals<E>(
        &self,
        f: &mut impl FnMut(&str, &Literal) -> Result<Literal, E>,
    ) -> Result<PrefExpr, E> {
        let children = |cs: &[PrefExpr], f: &mut _| {
            cs.iter()
                .map(|c| c.map_literals(f))
                .collect::<Result<Vec<_>, E>>()
        };
        Ok(match self {
            PrefExpr::Prior(cs) => PrefExpr::Prior(children(cs, f)?),
            PrefExpr::Pareto(cs) => PrefExpr::Pareto(children(cs, f)?),
            PrefExpr::Atom(a) => PrefExpr::Atom(a.map_literals(f)?),
        })
    }
}

impl PrefAtom {
    fn walk_literals(&self, f: &mut impl FnMut(&Literal)) {
        match self {
            PrefAtom::Pos { values, .. } | PrefAtom::Neg { values, .. } => {
                values.iter().for_each(f)
            }
            PrefAtom::PosPos { pos1, pos2, .. } => {
                pos1.iter().for_each(&mut *f);
                pos2.iter().for_each(f);
            }
            PrefAtom::PosNeg { pos, neg, .. } => {
                pos.iter().for_each(&mut *f);
                neg.iter().for_each(f);
            }
            PrefAtom::Around { target, .. } => f(target),
            PrefAtom::Between { low, up, .. } => {
                f(low);
                f(up);
            }
            PrefAtom::Lowest { .. } | PrefAtom::Highest { .. } => {}
            PrefAtom::Explicit { edges, .. } => {
                for (w, b) in edges {
                    f(w);
                    f(b);
                }
            }
        }
    }

    fn map_literals<E>(
        &self,
        f: &mut impl FnMut(&str, &Literal) -> Result<Literal, E>,
    ) -> Result<PrefAtom, E> {
        let mut set = |attr: &str, ls: &[Literal]| -> Result<Vec<Literal>, E> {
            ls.iter().map(|l| f(attr, l)).collect()
        };
        Ok(match self {
            PrefAtom::Pos { attr, values } => PrefAtom::Pos {
                attr: attr.clone(),
                values: set(attr, values)?,
            },
            PrefAtom::Neg { attr, values } => PrefAtom::Neg {
                attr: attr.clone(),
                values: set(attr, values)?,
            },
            PrefAtom::PosPos { attr, pos1, pos2 } => PrefAtom::PosPos {
                attr: attr.clone(),
                pos1: set(attr, pos1)?,
                pos2: set(attr, pos2)?,
            },
            PrefAtom::PosNeg { attr, pos, neg } => PrefAtom::PosNeg {
                attr: attr.clone(),
                pos: set(attr, pos)?,
                neg: set(attr, neg)?,
            },
            PrefAtom::Around { attr, target } => PrefAtom::Around {
                attr: attr.clone(),
                target: f(attr, target)?,
            },
            PrefAtom::Between { attr, low, up } => PrefAtom::Between {
                attr: attr.clone(),
                low: f(attr, low)?,
                up: f(attr, up)?,
            },
            PrefAtom::Lowest { .. } | PrefAtom::Highest { .. } => self.clone(),
            PrefAtom::Explicit { attr, edges } => PrefAtom::Explicit {
                attr: attr.clone(),
                edges: edges
                    .iter()
                    .map(|(w, b)| Ok((f(attr, w)?, f(attr, b)?)))
                    .collect::<Result<_, E>>()?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_fingerprints_are_structural() {
        let cmp = |col: &str, op, lit| HardExpr::Cmp(col.into(), op, lit);
        let base = cmp("make", CmpOp::Eq, Literal::Str("Opel".into()));

        // Equal structure ⇒ equal fingerprint, reproducibly.
        assert_eq!(
            base.fingerprint(),
            cmp("make", CmpOp::Eq, Literal::Str("Opel".into())).fingerprint()
        );

        // Column, operator, literal value/type, connective and nesting
        // all matter.
        let distinct = [
            base.clone(),
            cmp("make", CmpOp::Ne, Literal::Str("Opel".into())),
            cmp("make", CmpOp::Eq, Literal::Str("BMW".into())),
            cmp("color", CmpOp::Eq, Literal::Str("Opel".into())),
            cmp("price", CmpOp::Eq, Literal::Int(1)),
            cmp("price", CmpOp::Eq, Literal::Float(1.0)),
            HardExpr::Not(Box::new(base.clone())),
            HardExpr::And(Box::new(base.clone()), Box::new(base.clone())),
            HardExpr::Or(Box::new(base.clone()), Box::new(base.clone())),
            HardExpr::Between("price".into(), Literal::Int(1), Literal::Int(2)),
            HardExpr::Between("price".into(), Literal::Int(2), Literal::Int(1)),
            HardExpr::In("make".into(), vec![Literal::Str("Opel".into())], false),
            HardExpr::In("make".into(), vec![Literal::Str("Opel".into())], true),
            cmp("price", CmpOp::Eq, Literal::Float(0.0)),
            cmp("price", CmpOp::Eq, Literal::Float(-0.0)),
            cmp("price", CmpOp::Eq, Literal::Str("1".into())),
            cmp("price", CmpOp::Eq, Literal::Param(1)),
            // A string that embeds the rendering's own separators: plain
            // concatenation of the two IN lists would collide.
            HardExpr::In("make".into(), vec![Literal::Str(r#"a", "b"#.into())], false),
            HardExpr::In(
                "make".into(),
                vec![Literal::Str("a".into()), Literal::Str("b".into())],
                false,
            ),
        ];
        let fps: Vec<u64> = distinct.iter().map(HardExpr::fingerprint).collect();
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "collision between {i} and {j}");
            }
        }
    }

    #[test]
    fn atom_count_recurses() {
        let e = PrefExpr::Prior(vec![
            PrefExpr::Atom(PrefAtom::Lowest { attr: "a".into() }),
            PrefExpr::Pareto(vec![
                PrefExpr::Atom(PrefAtom::Highest { attr: "b".into() }),
                PrefExpr::Atom(PrefAtom::Around {
                    attr: "c".into(),
                    target: Literal::Int(1),
                }),
            ]),
        ]);
        assert_eq!(e.atom_count(), 3);
    }
}
