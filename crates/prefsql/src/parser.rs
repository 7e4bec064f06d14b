//! Recursive-descent parser for Preference SQL.
//!
//! ```text
//! stmt     := query | delete
//! delete   := DELETE FROM ident [WHERE hard] [;]
//! query    := SELECT select FROM ident [WHERE hard]
//!             [PREFERRING pref [GROUP BY idents]] {CASCADE pref}
//!             [BUT ONLY quality] [LIMIT int] [;]
//! select   := '*' | ident {',' ident}
//! hard     := hor ; hor := hand {OR hand} ; hand := hnot {AND hnot}
//! hnot     := [NOT] hprim
//! hprim    := '(' hor ')' | ident cmp lit | ident BETWEEN lit AND lit
//!           | ident [NOT] IN '(' lits ')'
//! pref     := para {PRIOR TO para}
//! para     := patom {AND patom}
//! patom    := '(' pref ')' | LOWEST '(' ident ')' | HIGHEST '(' ident ')'
//!           | EXPLICIT '(' ident {',' '(' lit ',' lit ')'} ')'
//!           | ident ptail
//! ptail    := '=' lit [ELSE etail] | '<>' lit | AROUND lit
//!           | BETWEEN lit AND lit | [NOT] IN '(' lits ')' [ELSE etail]
//! etail    := ident '=' lit | ident '<>' lit | ident [NOT] IN '(' lits ')'
//! quality  := qatom {AND qatom}
//! qatom    := LEVEL '(' ident ')' (<=|<) int
//!           | DISTANCE '(' ident ')' (<=|<) num
//! ```

use crate::ast::*;
use crate::error::SqlError;
use crate::token::{lex, Kw, Tok};

/// Parse a full Preference SQL query.
pub fn parse(input: &str) -> Result<Query, SqlError> {
    let toks = lex(input)?;
    let mut p = Parser { toks, pos: 0 };
    let q = p.query()?;
    p.expect_end()?;
    Ok(q)
}

/// Parse one statement: a query, or a `DELETE FROM …` mutation.
pub fn parse_statement(input: &str) -> Result<Statement, SqlError> {
    let toks = lex(input)?;
    let mut p = Parser { toks, pos: 0 };
    let stmt = if p.peek() == &Tok::Keyword(Kw::Delete) {
        Statement::Delete(p.delete_stmt()?)
    } else {
        Statement::Query(Box::new(p.query()?))
    };
    p.expect_end()?;
    Ok(stmt)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)]
    }

    fn bump(&mut self) -> Tok {
        let t = self.peek().clone();
        self.pos += 1;
        t
    }

    fn err<T>(&self, expected: &str) -> Result<T, SqlError> {
        Err(SqlError::Parse {
            pos: self.pos,
            expected: expected.to_string(),
            found: self.peek().to_string(),
        })
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        if self.peek() == &Tok::Keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(&format!("{kw:?}"))
        }
    }

    fn expect_tok(&mut self, t: Tok, name: &str) -> Result<(), SqlError> {
        if self.peek() == &t {
            self.pos += 1;
            Ok(())
        } else {
            self.err(name)
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.pos += 1;
                Ok(s)
            }
            _ => self.err("identifier"),
        }
    }

    fn literal(&mut self) -> Result<Literal, SqlError> {
        let lit = match self.peek().clone() {
            Tok::Int(v) => Literal::Int(v),
            Tok::Float(v) => Literal::Float(v),
            Tok::Str(s) => Literal::Str(s),
            Tok::Param(n) => Literal::Param(n),
            Tok::Keyword(Kw::True) => Literal::Bool(true),
            Tok::Keyword(Kw::False) => Literal::Bool(false),
            _ => return self.err("literal"),
        };
        self.pos += 1;
        Ok(lit)
    }

    fn literal_list(&mut self) -> Result<Vec<Literal>, SqlError> {
        self.expect_tok(Tok::LParen, "(")?;
        let mut out = vec![self.literal()?];
        while self.peek() == &Tok::Comma {
            self.pos += 1;
            out.push(self.literal()?);
        }
        self.expect_tok(Tok::RParen, ")")?;
        Ok(out)
    }

    fn query(&mut self) -> Result<Query, SqlError> {
        let explain = self.eat_kw(Kw::Explain);
        self.expect_kw(Kw::Select)?;
        let top = if self.eat_kw(Kw::Top) {
            Some(self.limit_spec("non-negative integer or $n after TOP")?)
        } else {
            None
        };
        let select = self.select_list()?;
        self.expect_kw(Kw::From)?;
        let table = self.ident()?;

        let hard = if self.eat_kw(Kw::Where) {
            Some(self.hard_or()?)
        } else {
            None
        };

        let mut preferring = None;
        let mut group_by = Vec::new();
        if self.eat_kw(Kw::Preferring) {
            preferring = Some(self.pref()?);
            if self.eat_kw(Kw::Group) {
                self.expect_kw(Kw::By)?;
                group_by.push(self.ident()?);
                while self.peek() == &Tok::Comma {
                    self.pos += 1;
                    group_by.push(self.ident()?);
                }
            }
        }

        let mut cascade = Vec::new();
        while self.eat_kw(Kw::Cascade) {
            cascade.push(self.pref()?);
        }

        let mut but_only = Vec::new();
        if self.eat_kw(Kw::But) {
            self.expect_kw(Kw::Only)?;
            but_only.push(self.quality_atom()?);
            while self.eat_kw(Kw::And) {
                but_only.push(self.quality_atom()?);
            }
        }

        let limit = if self.eat_kw(Kw::Limit) {
            Some(self.limit_spec("non-negative integer or $n after LIMIT")?)
        } else {
            None
        };

        // Optional trailing semicolon.
        if self.peek() == &Tok::Semi {
            self.pos += 1;
        }

        Ok(Query {
            explain,
            select,
            table,
            hard,
            preferring,
            group_by,
            cascade,
            but_only,
            limit,
            top,
        })
    }

    /// `delete := DELETE FROM ident [WHERE hard] [;]` — the hard
    /// grammar is shared with SELECT, so anything a query can select, a
    /// DELETE can target.
    fn delete_stmt(&mut self) -> Result<DeleteStmt, SqlError> {
        self.expect_kw(Kw::Delete)?;
        self.expect_kw(Kw::From)?;
        let table = self.ident()?;
        let hard = if self.eat_kw(Kw::Where) {
            Some(self.hard_or()?)
        } else {
            None
        };
        if self.peek() == &Tok::Semi {
            self.pos += 1;
        }
        Ok(DeleteStmt { table, hard })
    }

    /// A `LIMIT` / `TOP` count position: a non-negative integer or a
    /// `$n` placeholder bound at execute time.
    fn limit_spec(&mut self, expected: &str) -> Result<LimitSpec, SqlError> {
        match self.bump() {
            Tok::Int(v) if v >= 0 => Ok(LimitSpec::Count(v as usize)),
            Tok::Param(n) => Ok(LimitSpec::Param(n)),
            other => Err(SqlError::Parse {
                pos: self.pos - 1,
                expected: expected.into(),
                found: other.to_string(),
            }),
        }
    }

    fn expect_end(&mut self) -> Result<(), SqlError> {
        if self.peek() == &Tok::Eof {
            Ok(())
        } else {
            self.err("end of query")
        }
    }

    fn select_list(&mut self) -> Result<SelectList, SqlError> {
        if self.peek() == &Tok::Star {
            self.pos += 1;
            return Ok(SelectList::Star);
        }
        let mut cols = vec![self.ident()?];
        while self.peek() == &Tok::Comma {
            self.pos += 1;
            cols.push(self.ident()?);
        }
        Ok(SelectList::Columns(cols))
    }

    // ---- hard constraints ------------------------------------------------

    fn hard_or(&mut self) -> Result<HardExpr, SqlError> {
        let mut left = self.hard_and()?;
        while self.eat_kw(Kw::Or) {
            let right = self.hard_and()?;
            left = HardExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn hard_and(&mut self) -> Result<HardExpr, SqlError> {
        let mut left = self.hard_not()?;
        while self.eat_kw(Kw::And) {
            let right = self.hard_not()?;
            left = HardExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn hard_not(&mut self) -> Result<HardExpr, SqlError> {
        if self.eat_kw(Kw::Not) {
            Ok(HardExpr::Not(Box::new(self.hard_not()?)))
        } else {
            self.hard_primary()
        }
    }

    fn hard_primary(&mut self) -> Result<HardExpr, SqlError> {
        if self.peek() == &Tok::LParen {
            self.pos += 1;
            let inner = self.hard_or()?;
            self.expect_tok(Tok::RParen, ")")?;
            return Ok(inner);
        }
        let attr = self.ident()?;
        let op = match self.peek() {
            Tok::Eq => Some(CmpOp::Eq),
            Tok::Ne => Some(CmpOp::Ne),
            Tok::Lt => Some(CmpOp::Lt),
            Tok::Le => Some(CmpOp::Le),
            Tok::Gt => Some(CmpOp::Gt),
            Tok::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            return Ok(HardExpr::Cmp(attr, op, self.literal()?));
        }
        match self.peek() {
            Tok::Keyword(Kw::Between) => {
                self.pos += 1;
                let lo = self.literal()?;
                self.expect_kw(Kw::And)?;
                let hi = self.literal()?;
                Ok(HardExpr::Between(attr, lo, hi))
            }
            Tok::Keyword(Kw::In) => {
                self.pos += 1;
                Ok(HardExpr::In(attr, self.literal_list()?, false))
            }
            Tok::Keyword(Kw::Not) if self.peek2() == &Tok::Keyword(Kw::In) => {
                self.pos += 2;
                Ok(HardExpr::In(attr, self.literal_list()?, true))
            }
            _ => self.err("comparison operator, BETWEEN or IN"),
        }
    }

    // ---- soft constraints (preferences) -----------------------------------

    fn pref(&mut self) -> Result<PrefExpr, SqlError> {
        let mut parts = vec![self.pref_pareto()?];
        while self.peek() == &Tok::Keyword(Kw::Prior) {
            self.pos += 1;
            self.expect_kw(Kw::To)?;
            parts.push(self.pref_pareto()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            PrefExpr::Prior(parts)
        })
    }

    fn pref_pareto(&mut self) -> Result<PrefExpr, SqlError> {
        let mut parts = vec![self.pref_atom()?];
        while self.eat_kw(Kw::And) {
            parts.push(self.pref_atom()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            PrefExpr::Pareto(parts)
        })
    }

    fn pref_atom(&mut self) -> Result<PrefExpr, SqlError> {
        match self.peek().clone() {
            Tok::LParen => {
                self.pos += 1;
                let inner = self.pref()?;
                self.expect_tok(Tok::RParen, ")")?;
                Ok(inner)
            }
            Tok::Keyword(kw @ (Kw::Lowest | Kw::Highest)) => {
                self.pos += 1;
                self.expect_tok(Tok::LParen, "(")?;
                let attr = self.ident()?;
                self.expect_tok(Tok::RParen, ")")?;
                Ok(PrefExpr::Atom(match kw {
                    Kw::Lowest => PrefAtom::Lowest { attr },
                    _ => PrefAtom::Highest { attr },
                }))
            }
            Tok::Keyword(Kw::Explicit) => {
                self.pos += 1;
                self.expect_tok(Tok::LParen, "(")?;
                let attr = self.ident()?;
                let mut edges = Vec::new();
                while self.peek() == &Tok::Comma {
                    self.pos += 1;
                    self.expect_tok(Tok::LParen, "(")?;
                    let worse = self.literal()?;
                    self.expect_tok(Tok::Comma, ",")?;
                    let better = self.literal()?;
                    self.expect_tok(Tok::RParen, ")")?;
                    edges.push((worse, better));
                }
                self.expect_tok(Tok::RParen, ")")?;
                Ok(PrefExpr::Atom(PrefAtom::Explicit { attr, edges }))
            }
            Tok::Ident(_) => {
                let attr = self.ident()?;
                self.pref_tail(attr)
            }
            _ => self.err("preference atom"),
        }
    }

    fn pref_tail(&mut self, attr: String) -> Result<PrefExpr, SqlError> {
        match self.membership()? {
            Some((false, values)) => return self.maybe_else(attr, values),
            Some((true, values)) => return Ok(PrefExpr::Atom(PrefAtom::Neg { attr, values })),
            None => {}
        }
        match self.peek() {
            Tok::Keyword(Kw::Around) => {
                self.pos += 1;
                let target = self.literal()?;
                Ok(PrefExpr::Atom(PrefAtom::Around { attr, target }))
            }
            Tok::Keyword(Kw::Between) => {
                self.pos += 1;
                let low = self.literal()?;
                self.expect_kw(Kw::And)?;
                let up = self.literal()?;
                Ok(PrefExpr::Atom(PrefAtom::Between { attr, low, up }))
            }
            _ => self.err("preference operator (=, <>, IN, AROUND, BETWEEN)"),
        }
    }

    /// A set test on an attribute: `= v` or `IN (…)` (`false`), `<> v` or
    /// `NOT IN (…)` (`true`), with its values — `None` when none follows.
    fn membership(&mut self) -> Result<Option<(bool, Vec<Literal>)>, SqlError> {
        let (negated, list, width) = match (self.peek(), self.peek2()) {
            (Tok::Eq, _) => (false, false, 1),
            (Tok::Keyword(Kw::In), _) => (false, true, 1),
            (Tok::Ne, _) => (true, false, 1),
            (Tok::Keyword(Kw::Not), Tok::Keyword(Kw::In)) => (true, true, 2),
            _ => return Ok(None),
        };
        self.pos += width;
        let values = match list {
            true => self.literal_list()?,
            false => vec![self.literal()?],
        };
        Ok(Some((negated, values)))
    }

    /// After a POS head (`attr = v` or `attr IN (…)`), an optional
    /// `ELSE` continuation refines it into POS/POS or POS/NEG.
    fn maybe_else(&mut self, attr: String, pos: Vec<Literal>) -> Result<PrefExpr, SqlError> {
        if !self.eat_kw(Kw::Else) {
            return Ok(PrefExpr::Atom(PrefAtom::Pos { attr, values: pos }));
        }
        let attr2 = self.ident()?;
        if attr2 != attr {
            return Err(SqlError::Parse {
                pos: self.pos - 1,
                expected: format!("ELSE branch on the same attribute `{attr}`"),
                found: format!("identifier `{attr2}`"),
            });
        }
        match self.membership()? {
            Some((false, pos2)) => Ok(PrefExpr::Atom(PrefAtom::PosPos {
                attr,
                pos1: pos,
                pos2,
            })),
            Some((true, neg)) => Ok(PrefExpr::Atom(PrefAtom::PosNeg { attr, pos, neg })),
            None => self.err("=, <>, IN or NOT IN after ELSE"),
        }
    }

    // ---- quality constraints ----------------------------------------------

    fn quality_atom(&mut self) -> Result<QualityCondAst, SqlError> {
        let level = match self.peek() {
            Tok::Keyword(Kw::Level) => true,
            Tok::Keyword(Kw::Distance) => false,
            _ => return self.err("LEVEL or DISTANCE"),
        };
        self.pos += 1;
        self.expect_tok(Tok::LParen, "(")?;
        let attr = self.ident()?;
        self.expect_tok(Tok::RParen, ")")?;
        let strict = match self.peek() {
            Tok::Le => false,
            Tok::Lt => true,
            _ => return self.err("<= or <"),
        };
        self.pos += 1;
        let bound = match *self.peek() {
            Tok::Int(v) => Literal::Int(v),
            Tok::Float(v) => Literal::Float(v),
            Tok::Param(n) => Literal::Param(n),
            _ => return self.err("numeric bound or $n"),
        };
        self.pos += 1;
        Ok(QualityCondAst {
            level,
            attr,
            strict,
            bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_car_query() {
        let q = parse(
            "SELECT * FROM car WHERE make = 'Opel' \
             PREFERRING (category = 'roadster' ELSE category <> 'passenger' AND \
             price AROUND 40000 AND HIGHEST(power)) \
             CASCADE color = 'red' CASCADE LOWEST(mileage);",
        )
        .unwrap();
        assert_eq!(q.table, "car");
        assert!(matches!(q.select, SelectList::Star));
        assert!(q.hard.is_some());
        assert_eq!(q.cascade.len(), 2);
        let pref = q.preferring.unwrap();
        assert_eq!(pref.atom_count(), 3);
        match pref {
            PrefExpr::Pareto(parts) => {
                assert!(matches!(parts[0], PrefExpr::Atom(PrefAtom::PosNeg { .. })));
                assert!(matches!(parts[1], PrefExpr::Atom(PrefAtom::Around { .. })));
                assert!(matches!(parts[2], PrefExpr::Atom(PrefAtom::Highest { .. })));
            }
            other => panic!("expected Pareto, got {other:?}"),
        }
    }

    #[test]
    fn parses_paper_trips_query() {
        let q = parse(
            "SELECT * FROM trips \
             PREFERRING start_date AROUND '2001/11/23' AND duration AROUND 14 \
             BUT ONLY DISTANCE(start_date)<=2 AND DISTANCE(duration)<=2",
        )
        .unwrap();
        assert_eq!(q.but_only.len(), 2);
        let distance = |attr: &str| QualityCondAst {
            level: false,
            attr: attr.into(),
            strict: false,
            bound: Literal::Int(2),
        };
        assert_eq!(q.but_only, [distance("start_date"), distance("duration")]);
    }

    #[test]
    fn prior_to_binds_weaker_than_and() {
        let q = parse(
            "SELECT * FROM cars PREFERRING color IN ('black','white') \
             PRIOR TO price AROUND 10000 AND LOWEST(mileage)",
        )
        .unwrap();
        match q.preferring.unwrap() {
            PrefExpr::Prior(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[0], PrefExpr::Atom(PrefAtom::Pos { .. })));
                assert!(matches!(parts[1], PrefExpr::Pareto(_)));
            }
            other => panic!("expected Prior, got {other:?}"),
        }
    }

    #[test]
    fn pos_pos_via_else() {
        let q = parse(
            "SELECT * FROM cars PREFERRING category = 'cabriolet' ELSE category = 'roadster'",
        )
        .unwrap();
        assert!(matches!(
            q.preferring.unwrap(),
            PrefExpr::Atom(PrefAtom::PosPos { .. })
        ));
    }

    #[test]
    fn else_requires_same_attribute() {
        let err =
            parse("SELECT * FROM cars PREFERRING category = 'a' ELSE color = 'b'").unwrap_err();
        assert!(matches!(err, SqlError::Parse { .. }));
    }

    #[test]
    fn explicit_preference() {
        let q = parse(
            "SELECT * FROM cars PREFERRING EXPLICIT(color, ('green','yellow'), ('yellow','white'))",
        )
        .unwrap();
        match q.preferring.unwrap() {
            PrefExpr::Atom(PrefAtom::Explicit { attr, edges }) => {
                assert_eq!(attr, "color");
                assert_eq!(edges.len(), 2);
            }
            other => panic!("expected Explicit, got {other:?}"),
        }
    }

    #[test]
    fn group_by_and_limit() {
        let q = parse(
            "SELECT make, price FROM cars PREFERRING price AROUND 40000 GROUP BY make LIMIT 5",
        )
        .unwrap();
        assert_eq!(q.group_by, vec!["make"]);
        assert_eq!(q.limit, Some(LimitSpec::Count(5)));
        assert!(matches!(q.select, SelectList::Columns(ref c) if c.len() == 2));
    }

    #[test]
    fn hard_between_and_in() {
        let q = parse(
            "SELECT * FROM cars WHERE price BETWEEN 10000 AND 20000 \
             AND make IN ('VW', 'Opel') OR NOT color = 'gray'",
        )
        .unwrap();
        assert!(matches!(q.hard.unwrap(), HardExpr::Or(_, _)));
    }

    #[test]
    fn between_inside_pareto_and() {
        // The BETWEEN…AND…AND ambiguity: first AND belongs to BETWEEN.
        let q =
            parse("SELECT * FROM cars PREFERRING price BETWEEN 10000 AND 20000 AND HIGHEST(power)")
                .unwrap();
        match q.preferring.unwrap() {
            PrefExpr::Pareto(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected Pareto, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse("SELECT * FROM cars banana").is_err());
        assert!(parse("SELECT *").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn delete_statements_parse() {
        let d = match parse_statement("DELETE FROM cars WHERE price > 50000;").unwrap() {
            Statement::Delete(d) => d,
            other => panic!("expected a delete, got {other:?}"),
        };
        assert_eq!(d.table, "cars");
        assert!(matches!(d.hard, Some(HardExpr::Cmp(ref a, CmpOp::Gt, _)) if a == "price"));

        let bare = match parse_statement("delete from cars").unwrap() {
            Statement::Delete(d) => d,
            other => panic!("expected a delete, got {other:?}"),
        };
        assert!(bare.hard.is_none());

        // A SELECT through the statement entry still parses as a query,
        // and malformed deletes are rejected.
        assert!(matches!(
            parse_statement("SELECT * FROM cars").unwrap(),
            Statement::Query(_)
        ));
        assert!(parse_statement("DELETE cars").is_err());
        assert!(parse_statement("DELETE FROM cars banana").is_err());
    }

    #[test]
    fn not_in_preference_is_neg() {
        let q = parse("SELECT * FROM cars PREFERRING color NOT IN ('gray', 'brown')").unwrap();
        assert!(matches!(
            q.preferring.unwrap(),
            PrefExpr::Atom(PrefAtom::Neg { ref values, .. }) if values.len() == 2
        ));
    }
}
