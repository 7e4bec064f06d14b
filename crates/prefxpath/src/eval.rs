//! Evaluation of Preference XPath location paths.
//!
//! Hard predicates filter the node set of a location step (exact-match
//! world); soft selections run a BMO preference query *on the node set of
//! that step* — the candidates become tuples over their referenced
//! attributes and the winners survive, exactly mirroring `σ[P](R)` with R
//! = the step's node set.
//!
//! XML attributes are untyped text; when a soft or hard constraint looks
//! at them numerically, values are coerced per attribute: if every
//! present value parses as a number the column is numeric, otherwise it
//! stays textual (and numeric preferences treat it as off-axis).

use pref_core::base::{Around, Between, Neg, Pos, PosNeg, PosPos, Score};
use pref_core::term::Pref;
use pref_query::Engine;
use pref_relation::{DataType, Relation, Schema, Value};

use crate::error::XPathError;
use crate::path::{
    parse_path, Axis, CmpOp, Constraint, Lit, LocationPath, NodeTest, Predicate, SoftAtom, SoftExpr,
};
use crate::xml::{Document, NodeId};

/// A Preference XPath engine over one document.
#[derive(Debug)]
pub struct PrefXPath<'a> {
    doc: &'a Document,
    /// Capacity 0: every soft selection runs on a relation built from
    /// that step's node set, which never recurs — caching it would only
    /// pin dead matrices.
    engine: Engine,
}

impl<'a> PrefXPath<'a> {
    pub fn new(doc: &'a Document) -> Self {
        PrefXPath {
            doc,
            engine: Engine::new().with_capacity(0),
        }
    }

    /// Evaluate a path string, returning matching node ids in document
    /// order.
    pub fn query(&self, path: &str) -> Result<Vec<NodeId>, XPathError> {
        self.eval(&parse_path(path)?)
    }

    /// Evaluate a parsed path.
    pub fn eval(&self, path: &LocationPath) -> Result<Vec<NodeId>, XPathError> {
        // The context starts at a virtual document root whose only child
        // is the root element.
        let mut current: Vec<NodeId> = vec![];
        for (i, step) in path.steps.iter().enumerate() {
            let mut candidates: Vec<NodeId> = Vec::new();
            if i == 0 {
                match step.axis {
                    Axis::Child => candidates.push(self.doc.root()),
                    Axis::Descendant => {
                        candidates.extend(self.doc.descendants_or_self(self.doc.root()))
                    }
                }
            } else {
                for &ctx in &current {
                    match step.axis {
                        Axis::Child => candidates.extend(self.doc.node(ctx).children.iter()),
                        Axis::Descendant => {
                            // descendant-or-self::node()/child::test —
                            // i.e. all strict descendants.
                            let mut d = self.doc.descendants_or_self(ctx);
                            d.retain(|&n| n != ctx);
                            candidates.extend(d);
                        }
                    }
                }
                // Document order + dedup (contexts may share subtrees).
                candidates.sort_unstable();
                candidates.dedup();
            }

            candidates.retain(|&n| match &step.test {
                NodeTest::Any => true,
                NodeTest::Name(name) => &self.doc.node(n).name == name,
            });

            for c in &step.constraints {
                match c {
                    Constraint::Hard(p) => {
                        candidates.retain(|&n| self.hard(n, p));
                    }
                    Constraint::Soft(s) => {
                        candidates = self.soft(&candidates, s)?;
                    }
                }
            }
            current = candidates;
        }
        Ok(current)
    }

    // ---- hard predicates ---------------------------------------------------

    fn hard(&self, node: NodeId, pred: &Predicate) -> bool {
        match pred {
            Predicate::Exists(a) => self.doc.node(node).attr(a).is_some(),
            Predicate::Cmp(a, op, lit) => {
                let Some(raw) = self.doc.node(node).attr(a) else {
                    return false;
                };
                let ord = match lit {
                    Lit::Num(v) => match raw.parse::<f64>() {
                        Ok(x) => x.partial_cmp(v),
                        Err(_) => None,
                    },
                    Lit::Str(s) => Some(raw.cmp(s.as_str())),
                };
                match (ord, op) {
                    (None, _) => false,
                    (Some(o), CmpOp::Eq) => o.is_eq(),
                    (Some(o), CmpOp::Ne) => o.is_ne(),
                    (Some(o), CmpOp::Lt) => o.is_lt(),
                    (Some(o), CmpOp::Le) => o.is_le(),
                    (Some(o), CmpOp::Gt) => o.is_gt(),
                    (Some(o), CmpOp::Ge) => o.is_ge(),
                }
            }
            Predicate::And(l, r) => self.hard(node, l) && self.hard(node, r),
            Predicate::Or(l, r) => self.hard(node, l) || self.hard(node, r),
            Predicate::Not(inner) => !self.hard(node, inner),
        }
    }

    // ---- soft selections -----------------------------------------------------

    fn soft(&self, candidates: &[NodeId], expr: &SoftExpr) -> Result<Vec<NodeId>, XPathError> {
        if candidates.is_empty() {
            return Ok(Vec::new());
        }
        let attrs = expr.attributes();
        let relation = self.node_relation(candidates, &attrs)?;
        let pref = soft_to_term(expr)?;
        let winners = self
            .engine
            .prepare(&pref, relation.schema())?
            .execute(&relation)?
            .into_rows();
        Ok(winners.into_iter().map(|i| candidates[i]).collect())
    }

    /// Materialise the candidate node set as a relation over the
    /// referenced attributes, inferring a numeric column type when every
    /// present value parses as a number.
    fn node_relation(&self, candidates: &[NodeId], attrs: &[&str]) -> Result<Relation, XPathError> {
        let mut types = Vec::with_capacity(attrs.len());
        for &a in attrs {
            let mut numeric = true;
            for &n in candidates {
                if let Some(raw) = self.doc.node(n).attr(a) {
                    if raw.parse::<f64>().is_err() {
                        numeric = false;
                        break;
                    }
                }
            }
            types.push(if numeric {
                DataType::Float
            } else {
                DataType::Str
            });
        }
        let schema = Schema::new(attrs.iter().zip(&types).map(|(a, t)| (a.to_string(), *t)))
            .map_err(|e| XPathError::Core(e.into()))?;
        let mut r = Relation::empty(schema);
        for &n in candidates {
            let row: Vec<Value> = attrs
                .iter()
                .zip(&types)
                .map(|(a, t)| match self.doc.node(n).attr(a) {
                    None => Value::Null,
                    Some(raw) => match t {
                        DataType::Float => {
                            raw.parse::<f64>().map(Value::from).unwrap_or(Value::Null)
                        }
                        _ => Value::from(raw),
                    },
                })
                .collect();
            r.push_values(row).map_err(|e| XPathError::Core(e.into()))?;
        }
        Ok(r)
    }
}

fn lit_value(lit: &Lit) -> Value {
    match lit {
        Lit::Num(v) => Value::from(*v),
        Lit::Str(s) => Value::from(s.as_str()),
    }
}

/// Translate a soft selection into a preference term: `and` → `⊗`,
/// `prior to` → `&`, atoms → Def. 6/7 base constructors.
pub fn soft_to_term(expr: &SoftExpr) -> Result<Pref, XPathError> {
    Ok(match expr {
        SoftExpr::Prior(children) => Pref::prior_all(
            children
                .iter()
                .map(soft_to_term)
                .collect::<Result<Vec<_>, _>>()?,
        )
        .map_err(XPathError::Core)?,
        SoftExpr::Pareto(children) => Pref::pareto_all(
            children
                .iter()
                .map(soft_to_term)
                .collect::<Result<Vec<_>, _>>()?,
        )
        .map_err(XPathError::Core)?,
        SoftExpr::Atom(atom) => match atom {
            // Unlike the pure HIGHEST/LOWEST chains (where an off-axis
            // value is *incomparable*, Def. 7c), Preference XPath wants
            // nodes with a missing or unparsable attribute to lose
            // against every scored node: SCORE's Def. 7d semantics send
            // them to -∞ (mutually unranked), which is exactly that —
            // and it holds on every evaluation backend, instead of
            // depending on which algorithm the optimizer picks.
            SoftAtom::Highest(a) => Pref::base(
                a.as_str(),
                Score::new("xpath-highest", |v: &Value| v.ordinal()),
            ),
            SoftAtom::Lowest(a) => Pref::base(
                a.as_str(),
                Score::new("xpath-lowest", |v: &Value| v.ordinal().map(|o| -o)),
            ),
            SoftAtom::Around(a, z) => Pref::base(a.as_str(), Around::new(*z)),
            SoftAtom::Between(a, lo, hi) => Pref::base(
                a.as_str(),
                Between::new(*lo, *hi).map_err(XPathError::Core)?,
            ),
            SoftAtom::In(a, vs) => Pref::base(a.as_str(), Pos::new(vs.iter().map(lit_value))),
            SoftAtom::NotIn(a, vs) => Pref::base(a.as_str(), Neg::new(vs.iter().map(lit_value))),
            SoftAtom::InElseIn(a, p1, p2) => Pref::base(
                a.as_str(),
                PosPos::new(p1.iter().map(lit_value), p2.iter().map(lit_value))
                    .map_err(XPathError::Core)?,
            ),
            SoftAtom::InElseNotIn(a, p, n) => Pref::base(
                a.as_str(),
                PosNeg::new(p.iter().map(lit_value), n.iter().map(lit_value))
                    .map_err(XPathError::Core)?,
            ),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xml::parse_xml;

    fn cars_doc() -> Document {
        parse_xml(
            r#"<CARS>
  <CAR fuel_economy="100" horsepower="3" color="red" price="9000" mileage="60000"/>
  <CAR fuel_economy="50" horsepower="3" color="black" price="10500" mileage="30000"/>
  <CAR fuel_economy="50" horsepower="10" color="white" price="15000" mileage="30000"/>
  <CAR fuel_economy="100" horsepower="10" color="black" price="11000" mileage="45000"/>
  <VAN fuel_economy="30" horsepower="8" color="black" price="9000" mileage="80000"/>
</CARS>"#,
        )
        .unwrap()
    }

    #[test]
    fn paper_q1_skyline() {
        // Q1: highest fuel economy ⊗ highest horsepower — only the car
        // maximal in both survives (the Example 9 "turtle" effect).
        let doc = cars_doc();
        let engine = PrefXPath::new(&doc);
        let hits = engine
            .query("/CARS/CAR #[(@fuel_economy)highest and (@horsepower)highest]#")
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(doc.node(hits[0]).attr("fuel_economy"), Some("100"));
        assert_eq!(doc.node(hits[0]).attr("horsepower"), Some("10"));
    }

    #[test]
    fn paper_q2_prioritised_then_second_soft_step() {
        let doc = cars_doc();
        let engine = PrefXPath::new(&doc);
        let hits = engine
            .query(
                "/CARS/CAR #[(@color)in(\"black\", \"white\") prior to (@price)around 10000]# \
                 #[(@mileage)lowest]#",
            )
            .unwrap();
        // Color favorites: black/white cars (3). Among equal colors the
        // price preference refines: black 10500 beats black 11000. Then
        // lowest mileage keeps the 30000-mile cars.
        assert_eq!(hits.len(), 2);
        for h in &hits {
            assert_eq!(doc.node(*h).attr("mileage"), Some("30000"));
        }
    }

    #[test]
    fn node_test_filters_names() {
        let doc = cars_doc();
        let engine = PrefXPath::new(&doc);
        assert_eq!(engine.query("/CARS/CAR").unwrap().len(), 4);
        assert_eq!(engine.query("/CARS/*").unwrap().len(), 5);
        assert_eq!(engine.query("//VAN").unwrap().len(), 1);
        assert!(engine.query("/WRONG").unwrap().is_empty());
    }

    #[test]
    fn hard_and_soft_combine() {
        let doc = cars_doc();
        let engine = PrefXPath::new(&doc);
        let hits = engine
            .query("/CARS/CAR[@price <= 11000] #[(@horsepower)highest]#")
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(doc.node(hits[0]).attr("price"), Some("11000"));
    }

    #[test]
    fn missing_attributes_become_null_and_lose() {
        let doc = parse_xml(r#"<R><X p="5"/><X p="7"/><X/></R>"#).unwrap();
        let engine = PrefXPath::new(&doc);
        let hits = engine.query("/R/X #[(@p)highest]#").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(doc.node(hits[0]).attr("p"), Some("7"));
    }

    #[test]
    fn soft_on_empty_node_set_is_empty() {
        let doc = cars_doc();
        let engine = PrefXPath::new(&doc);
        assert!(engine
            .query("/CARS/TRUCK #[(@price)lowest]#")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn textual_attributes_use_pos_neg() {
        let doc = cars_doc();
        let engine = PrefXPath::new(&doc);
        let hits = engine
            .query("/CARS/CAR #[(@color)in(\"red\") else not in(\"black\")]#")
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(doc.node(hits[0]).attr("color"), Some("red"));
    }

    #[test]
    fn descendant_axis_collects_across_levels() {
        let doc = parse_xml(r#"<shop><lot><CAR price="5"/></lot><CAR price="3"/></shop>"#).unwrap();
        let engine = PrefXPath::new(&doc);
        let hits = engine.query("//CAR #[(@price)lowest]#").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(doc.node(hits[0]).attr("price"), Some("3"));
    }
}
