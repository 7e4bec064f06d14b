//! The semantic planner: derivation-traced rewriting, constraint-driven
//! semantic optimization, and a shape rule for the algorithm, reified as
//! an explicit [`Plan`] object.
//!
//! The paper names "building efficient preference query optimizers" as
//! the open problem; Chomicki's follow-up work shows the two *semantic*
//! levers this module adds on top of the algebraic laws:
//!
//! 1. **Redundant-winnow elimination** — when the relation's declared
//!    integrity constraints ([`Schema::constraints`]) imply that no
//!    stored tuple can be strictly better than another under `P`, then
//!    `σ[P](R) = R` and the winnow is dropped entirely: the engine
//!    answers with every row and runs **zero** algorithms.
//! 2. **Hard-selection commutation** — `σ_C(ω_P(R)) = ω_P(σ_C(R))`
//!    holds when `C` cannot distinguish two stored tuples; with every
//!    attribute of `C` declared [`Constant`](Constraint::Constant) the
//!    selection is uniform across rows and trivially commutes, so the
//!    executor may evaluate `P` against the (warm, cached) base relation
//!    and filter afterwards ([`selection_commutes`]).
//!
//! **The algorithm follows the term's shape**, not a cost formula — the
//! rule is the one the forced-algorithm `cells` table measures, applied
//! in this order (`choose`):
//!
//! 1. divide & conquer for chain skylines (a Pareto of LOWEST/HIGHEST);
//! 2. sort-filter-skyline — the accepted-window kernel over key lanes —
//!    for every other flat key order, and behind a Prop. 10 head split
//!    for a prioritisation headed by one key lane (or a lone key lane);
//! 3. block-nested-loops for orders without key lanes (EXPLICIT,
//!    intersection/union, a Pareto head, a dual, …).
//!
//! The Prop. 11 cascade is reachable only when forced. Forcing
//! [`Algorithm::BnlParallel`] plans plain BNL: the name stays, the
//! parallel variant is gone.
//!
//! Neither lever nor the rule reads the relation: the whole decision —
//! laws fired, constraints used, each candidate's eligibility and the
//! rule that fired — depends on the term, the schema and the engine's
//! optimizer alone, so it is made once per prepare as a [`Plan`]. Over a
//! relation state the plan becomes a [`RelationPlan`]: the same plan plus
//! the row count, the generation and the Def. 18 result estimate, all
//! three read off the relation on every call. The estimate is a function
//! of the term and the row count; it reads no column statistics.
//! `EXPLAIN` prints both halves.

use std::sync::Arc;

use pref_core::algebra::RewriteStep;
use pref_core::eval::{CompiledPref, LaneShape};
use pref_core::term::Pref;
use pref_relation::{Attr, Constraint, Schema};

use crate::optimizer::Algorithm;

/// One recorded derivation step: an algebra law fired by the traced
/// rewriter, or a semantic (constraint-driven) rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// `"law"` for Prop. 2–4 algebra steps, `"semantic"` for
    /// constraint-driven rewrites.
    pub kind: &'static str,
    /// The rule that fired (e.g. `"Prop. 3l (P ⊗ P ≡ P)"`).
    pub rule: String,
    /// The whole term before the step.
    pub before: String,
    /// The whole term after the step (equal to `before` for annotation
    /// steps that do not rewrite the term, e.g. the elimination note).
    pub after: String,
}

/// One candidate of the shape rule with its eligibility verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    pub algorithm: Algorithm,
    pub eligible: bool,
    /// The shape that makes it eligible, or the reason it is not.
    pub detail: &'static str,
}

/// The plan of one prepared query: the derivation that produced the
/// evaluated term, the semantic verdict, the rule's candidates and the
/// chosen algorithm. Everything here depends only on the term, the
/// schema and the engine's optimizer, so it is made once per prepare and
/// shared by every execution. Rendered only through
/// [`Explain::lines`](crate::Explain::lines).
#[derive(Debug, Clone)]
pub struct Plan {
    /// Derivation steps: algebraic trace first, semantic steps after.
    pub steps: Vec<PlanStep>,
    /// Display forms of the integrity constraints the semantic steps
    /// relied on (empty when none fired).
    pub constraints_used: Vec<String>,
    /// `σ[P](R) = R` proven from the constraint registry: the winnow is
    /// eliminated and no algorithm runs.
    pub redundant: bool,
    /// The rule's candidates, in rule order (empty when forced or elided).
    pub candidates: Vec<Candidate>,
    /// The chosen algorithm (the first eligible candidate).
    pub algorithm: Algorithm,
    /// Selection rationale, reported through [`Explain`](crate::Explain).
    pub reason: String,
}

/// A prepared query's [`Plan`] over one relation state: the shared plan
/// plus the three numbers EXPLAIN's `stats` line prints, read off the
/// relation on every call.
#[derive(Debug, Clone)]
pub struct RelationPlan {
    /// The prepare-time plan.
    pub plan: Arc<Plan>,
    /// Row count of the relation state.
    pub rows: usize,
    /// Generation of that relation state.
    pub generation: u64,
    /// Def. 18-style estimated BMO result size, in rows.
    pub estimated_result: f64,
}

impl Plan {
    /// Plan `simplified` (compiled as `compiled`) against `schema`: fold
    /// the recorded algebra `trace` into derivation steps, then take the
    /// caller's `force`d algorithm, or elide the winnow when the schema's
    /// constraint registry proves it redundant, or apply the shape rule —
    /// in that order. A forced algorithm always runs, so a forced plan
    /// asks no constraint and reports none.
    pub(crate) fn new(
        simplified: &Pref,
        compiled: &CompiledPref,
        schema: &Schema,
        trace: Vec<RewriteStep>,
        force: Option<Algorithm>,
    ) -> Plan {
        let mut steps: Vec<PlanStep> = trace
            .into_iter()
            .map(|s| PlanStep {
                kind: "law",
                rule: s.law.to_string(),
                before: s.before.to_string(),
                after: s.after.to_string(),
            })
            .collect();
        let mut used: Vec<String> = Vec::new();
        // The elimination is gated on the constraint registry: a proof
        // that consumed no registered constraint (e.g. a bare anti-chain
        // term, vacuously non-discriminating) does not elide — the
        // planner only changes behaviour where the application declared
        // semantic knowledge to license it.
        let redundant =
            force.is_none() && winnow_redundant(simplified, schema, &mut used) && !used.is_empty();
        if redundant {
            let t = simplified.to_string();
            steps.push(PlanStep {
                kind: "semantic",
                rule: format!(
                    "redundant winnow eliminated: the registered constraints imply \
                     σ[{t}](R) = R (no stored tuple can dominate another) — \
                     zero algorithm runs"
                ),
                before: t.clone(),
                after: t,
            });
        } else {
            // A live winnow relied on no constraint, whatever a partial
            // proof over its operands collected.
            used.clear();
        }
        used.sort();
        used.dedup();
        let (candidates, algorithm, reason) = match force {
            // `BnlParallel` is a pinned name for the one BNL.
            Some(Algorithm::BnlParallel) => (
                Vec::new(),
                Algorithm::Bnl,
                "forced by caller as parallel block-nested-loops: ran block-nested-loops, \
                 the only BNL (there is no parallel variant)"
                    .to_string(),
            ),
            Some(a) => (Vec::new(), a, "forced by caller".to_string()),
            // Redundant winnow: no candidates — nothing runs.
            None if redundant => (
                Vec::new(),
                Algorithm::Elided,
                "winnow eliminated: registered integrity constraints prove \
                 σ[P](R) = R — zero algorithm runs"
                    .to_string(),
            ),
            None => {
                let (algorithm, reason, candidates) = choose(compiled);
                (candidates, algorithm, reason)
            }
        };
        Plan {
            steps,
            constraints_used: used,
            redundant,
            candidates,
            algorithm,
            reason,
        }
    }
}

/// Is the winnow `σ[P](R)` provably the identity on every relation
/// satisfying `schema`'s declared constraints? Appends the display form
/// of each constraint the proof relied on to `used`.
///
/// Soundness per constructor:
/// * every attribute of a sub-term Constant ⟹ all stored tuples share
///   the sub-term's projection, and strict preferences are irreflexive
///   on equal projections — no pair is comparable (any constructor);
/// * a [`Constraint::Domain`] bounds the stored values of one attribute,
///   so a base preference is redundant iff `better(x, y)` is false for
///   every pair of the declared domain — checked exactly, which covers
///   the classic cases (`pos(a, S)` with domain ⊆ S or domain ∩ S = ∅)
///   and every other constructor uniformly;
/// * Pareto/Prior require at least one strictly-better child to relate
///   a pair; Union relates a pair only if a child does; so all-children
///   -redundant suffices. Inter requires *both* children, so either
///   child redundant suffices. Dual of an empty order is empty.
///   Anti-chains relate nothing by construction.
fn winnow_redundant(p: &Pref, schema: &Schema, used: &mut Vec<String>) -> bool {
    // Blanket rule first: every attribute of this sub-term constant.
    let attrs = p.attributes();
    if !attrs.is_empty() {
        let mut witnesses = Vec::new();
        let all_constant = attrs.iter().all(|a| {
            constant_witness(schema, a).is_some_and(|c| {
                witnesses.push(format!(
                    "{c} ⟹ all stored tuples agree on {a} (irreflexivity: no pair comparable)"
                ));
                true
            })
        });
        if all_constant {
            used.extend(witnesses);
            return true;
        }
    }
    match p {
        Pref::Antichain(_) => true,
        Pref::Base(b) => {
            let Some(domain) = schema.domain_of(&b.attr) else {
                return false;
            };
            // Exact check over the declared domain: the base relates no
            // pair of storable values.
            let trivial = domain
                .iter()
                .all(|x| domain.iter().all(|y| !b.base.better(x, y)));
            if trivial {
                let c = Constraint::Domain {
                    attr: b.attr.clone(),
                    values: domain.to_vec(),
                };
                used.push(format!("{c} ⟹ {p} relates no pair of the declared domain"));
            }
            trivial
        }
        Pref::Dual(x) => winnow_redundant(x, schema, used),
        Pref::Pareto(cs) | Pref::Prior(cs) => cs.iter().all(|c| winnow_redundant(c, schema, used)),
        Pref::Union(l, r) => winnow_redundant(l, schema, used) && winnow_redundant(r, schema, used),
        Pref::Inter(l, r) => {
            // Check the right side only if the left is not redundant, so
            // `used` holds one sufficient proof, not a mixture.
            winnow_redundant(l, schema, used) || winnow_redundant(r, schema, used)
        }
        // rank(F) combines scores across bases; only the blanket
        // constant-attributes rule above applies.
        Pref::Rank(_, _) => false,
    }
}

/// The constraint making `attr` constant across stored tuples, if any.
fn constant_witness(schema: &Schema, attr: &Attr) -> Option<String> {
    schema
        .constraints_on(attr)
        .find(|c| match c {
            Constraint::Constant { .. } => true,
            Constraint::Domain { values, .. } => values.len() <= 1,
        })
        .map(ToString::to_string)
}

/// Does a hard selection over exactly `attrs` commute with the winnow on
/// every relation satisfying `schema`'s constraints? True when every
/// referenced attribute is declared constant: the selection then accepts
/// either all stored tuples or none, and `σ_C(ω_P(R)) = ω_P(σ_C(R))`
/// holds in both cases (identically `ω_P(R)`, or `∅ = ω_P(∅)`).
/// Vacuously true for a selection referencing no attributes.
pub fn selection_commutes<'a>(schema: &Schema, attrs: impl IntoIterator<Item = &'a Attr>) -> bool {
    attrs.into_iter().all(|a| schema.attr_is_constant(a))
}

// ---- algorithm choice and result estimate ------------------------------

/// Def. 18-style estimate of `|σ[P](R)|` over `n` rows. A base or
/// `rank(F)` node keeps `ln n` rows; Pareto accumulations follow the
/// classic independent-dimension skyline estimate `(ln n)^(k−1)`;
/// prioritised accumulation refines the head's maxima by the tail's
/// selectivity. All heuristic, all clamped to `[1, n]`.
pub(crate) fn estimated_result(p: &Pref, n: usize) -> f64 {
    let rows = n as f64;
    if n <= 1 {
        return rows;
    }
    let est = match p {
        Pref::Base(_) | Pref::Rank(..) => rows.ln().max(1.0),
        Pref::Antichain(_) => rows,
        Pref::Dual(x) => estimated_result(x, n),
        Pref::Pareto(cs) => {
            let k = cs.len().max(1) as f64;
            rows.ln().max(1.0).powf(k - 1.0)
        }
        Pref::Prior(cs) => {
            let mut est = rows;
            for c in cs {
                est *= estimated_result(c, n) / rows;
            }
            est
        }
        // Intersection keeps a pair comparable only when both operands
        // agree — fewer comparable pairs, more maxima than either side.
        Pref::Inter(l, r) => estimated_result(l, n).max(estimated_result(r, n)),
        // Disjoint union adds comparable pairs — fewer maxima.
        Pref::Union(l, r) => estimated_result(l, n).min(estimated_result(r, n)),
    };
    est.clamp(1.0, rows)
}

/// The shape rule's candidates for an already-simplified, compiled
/// term, in rule order: D&C, SFS (the key-lane kernel), BNL.
fn candidates(c: &CompiledPref) -> [Candidate; 3] {
    let chain = c.chain_dims().is_some();
    let lanes = c.lane_shape();
    let sfs = match lanes {
        Some(LaneShape::Flat) => "flat key order: presort by key sum, then the accepted window",
        Some(LaneShape::HeadSplit) => {
            "single-lane or anti-chain head: Prop. 10 head split, then the accepted \
             window on each bucket's tail lanes"
        }
        None => "no key lanes (EXPLICIT, intersection/union, a Pareto head or a dual)",
    };
    [
        Candidate {
            algorithm: Algorithm::Dnc,
            eligible: chain,
            detail: if chain {
                "chain skyline: Pareto of LOWEST/HIGHEST, per-dimension sweeps"
            } else {
                "not a Pareto accumulation of LOWEST/HIGHEST chains"
            },
        },
        Candidate {
            algorithm: Algorithm::Sfs,
            eligible: lanes.is_some(),
            detail: sfs,
        },
        Candidate {
            algorithm: Algorithm::Bnl,
            eligible: true,
            detail: "any strict partial order, pairwise window",
        },
    ]
}

/// Apply the shape rule to an already-simplified, compiled term: the
/// first eligible candidate wins. Returns the choice, its rationale and
/// the candidates.
fn choose(c: &CompiledPref) -> (Algorithm, String, Vec<Candidate>) {
    let candidates = candidates(c);
    let chosen = candidates
        .iter()
        .find(|e| e.eligible)
        .expect("BNL is always eligible");
    let reason = format!("shape rule: {} — {}", chosen.algorithm, chosen.detail);
    (chosen.algorithm, reason, candidates.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_core::algebra::simplify_traced;
    use pref_core::prelude::*;
    use pref_relation::{attr, rel, Relation, Value};

    fn sample() -> Relation {
        rel! {
            ("a": Int, "b": Int, "c": Str);
            (1, 9, "x"), (2, 8, "y"), (3, 7, "x"), (9, 1, "z"),
            (5, 5, "x"), (6, 6, "y"), (1, 9, "x"), (0, 10, "z"),
        }
    }

    fn constrained_schema() -> Schema {
        sample()
            .schema()
            .clone()
            .with_constraint(Constraint::Constant { attr: attr("c") })
            .unwrap()
    }

    fn analyze(p: &Pref, s: &Schema) -> Plan {
        let (simplified, trace) = simplify_traced(p);
        let compiled = CompiledPref::compile(&simplified, s).unwrap();
        Plan::new(&simplified, &compiled, s, trace, None)
    }

    #[test]
    fn constant_attrs_eliminate_any_constructor() {
        let s = constrained_schema();
        for p in [
            pos("c", ["x"]),
            lowest("c"),
            pos("c", ["x"]).dual(),
            pos("c", ["x"]).pareto(neg("c", ["z"])),
            explicit("c", [("z", "x")]).unwrap(),
        ] {
            let info = analyze(&p, &s);
            assert!(info.redundant, "{p} must be redundant under CONSTANT(c)");
            assert!(!info.constraints_used.is_empty());
        }
        // An unconstrained attribute keeps the winnow live.
        let info = analyze(&lowest("a"), &s);
        assert!(!info.redundant);
        // A mixed Pareto is live: the `a` child can still discriminate,
        // and the `c` child's partial proof is no constraint it used.
        let info = analyze(&pos("c", ["x"]).pareto(lowest("a")), &s);
        assert!(!info.redundant);
        assert!(info.constraints_used.is_empty());
        // …but Inter needs only one trivial side: under DOMAIN(c ∈ {x, y})
        // the POS side cannot discriminate while the EXPLICIT side can.
        let s = sample()
            .schema()
            .clone()
            .with_constraint(Constraint::Domain {
                attr: attr("c"),
                values: vec![Value::from("x"), Value::from("y")],
            })
            .unwrap();
        let live = explicit("c", [("y", "x")]).unwrap();
        assert!(!analyze(&live, &s).redundant);
        let p = live.intersect(pos("c", ["w"])).unwrap();
        assert!(analyze(&p, &s).redundant);
    }

    #[test]
    fn domain_constraints_decide_pos_neg_redundancy() {
        let schema = sample().schema().clone();
        // Domain ⊆ POS set: every stored value is equally "good".
        let s = schema
            .clone()
            .with_constraint(Constraint::Domain {
                attr: attr("c"),
                values: vec![Value::from("x"), Value::from("y")],
            })
            .unwrap();
        assert!(analyze(&pos("c", ["x", "y", "w"]), &s).redundant);
        // Domain ∩ POS = ∅: every stored value is equally "other".
        assert!(analyze(&pos("c", ["w", "v"]), &s).redundant);
        // Overlap without inclusion: POS still discriminates.
        assert!(!analyze(&pos("c", ["x"]), &s).redundant);
        // NEG mirrors POS.
        assert!(analyze(&neg("c", ["w"]), &s).redundant);
        assert!(!analyze(&neg("c", ["x"]), &s).redundant);
    }

    #[test]
    fn selection_commutation_gate() {
        let s = constrained_schema();
        let c = attr("c");
        let a = attr("a");
        assert!(selection_commutes(&s, [&c]));
        assert!(!selection_commutes(&s, [&a]));
        assert!(!selection_commutes(&s, [&c, &a]));
        assert!(selection_commutes(&s, std::iter::empty()));
    }

    #[test]
    fn the_shape_rule_picks_one_algorithm_per_shape() {
        let r = sample();
        let chains = lowest("a").pareto(highest("b"));
        let explicit_c = || explicit("c", [("z", "x")]).unwrap();
        for (p, algorithm, rule) in [
            // Chain skylines, a lone chain included → D&C.
            (chains.clone(), Algorithm::Dnc, "chain skyline"),
            (highest("b"), Algorithm::Dnc, "chain skyline"),
            // Every other flat key order, utility or not → the window.
            (
                around("a", 3).pareto(lowest("b")),
                Algorithm::Sfs,
                "flat key order",
            ),
            (
                pos("c", ["x"]).pareto(neg("c", ["z"])),
                Algorithm::Sfs,
                "flat key order",
            ),
            // A single-lane head, a chain or not, and a lone key lane
            // (POS, rank(F)) → the head split.
            (
                lowest("a").prior(pos("c", ["x"])),
                Algorithm::Sfs,
                "Prop. 10 head split",
            ),
            (
                pos("c", ["x"]).prior(chains.clone()),
                Algorithm::Sfs,
                "Prop. 10 head split",
            ),
            (
                pos("c", ["x"]).prior(explicit_c()),
                Algorithm::Sfs,
                "Prop. 10 head split",
            ),
            (pos("c", ["x"]), Algorithm::Sfs, "Prop. 10 head split"),
            // An anti-chain head (Def. 16's grouping `A↔ & P`) too.
            (
                antichain(["c"]).prior(chains.clone()),
                Algorithm::Sfs,
                "Prop. 10 head split",
            ),
            (
                Pref::rank(CombineFn::sum(), vec![lowest("a"), highest("b")]).unwrap(),
                Algorithm::Sfs,
                "Prop. 10 head split",
            ),
            // No key lanes: a Pareto head, EXPLICIT, a dual → BNL.
            (
                chains.clone().prior(pos("c", ["x"])),
                Algorithm::Bnl,
                "pairwise",
            ),
            (explicit_c().pareto(lowest("a")), Algorithm::Bnl, "pairwise"),
            (around("a", 3).dual(), Algorithm::Bnl, "pairwise"),
        ] {
            let c = CompiledPref::compile(&p, r.schema()).unwrap();
            let (chosen, reason, candidates) = choose(&c);
            assert_eq!(chosen, algorithm, "{p}");
            assert!(
                reason.starts_with("shape rule") && reason.contains(rule),
                "{p}: {reason}"
            );
            let order: Vec<Algorithm> = candidates.iter().map(|e| e.algorithm).collect();
            assert_eq!(order, [Algorithm::Dnc, Algorithm::Sfs, Algorithm::Bnl]);
            let first = candidates.iter().find(|e| e.eligible).unwrap();
            assert_eq!(first.algorithm, chosen, "the first eligible candidate wins");
            let estimate = estimated_result(&p, r.len());
            assert!((1.0..=r.len() as f64).contains(&estimate));
        }
    }

    #[test]
    fn plan_lines_render_derivation_and_costs() {
        // CONSTANT(c) is enforced, so the table carries one `c` value.
        let mut r = Relation::empty(constrained_schema());
        for t in sample().iter() {
            r.push_values(vec![t[0].clone(), t[1].clone(), Value::from("x")])
                .unwrap();
        }
        let p = Pref::Pareto(vec![pos("c", ["x"]), pos("c", ["x"])]);
        let q = crate::Engine::new().prepare(&p, r.schema()).unwrap();
        let plan = q.plan(&r).plan;
        assert!(plan.redundant);
        assert_eq!(plan.algorithm, Algorithm::Elided);
        let text = q.explain(&r).to_string();
        assert!(text.contains("Prop. 3l"), "algebra trace rendered: {text}");
        assert!(text.contains("redundant winnow eliminated"));
        assert!(text.contains("zero algorithm runs"));
        assert!(text.contains("CONSTANT(c)"));
        assert!(text.contains("stats      : 8 rows"));

        // A forced algorithm runs, so its plan neither elides the winnow
        // nor cites the constraint that would have.
        let forced =
            crate::Engine::with_optimizer(crate::Optimizer::new().with_algorithm(Algorithm::Bnl));
        let q = forced.prepare(&pos("c", ["x"]), r.schema()).unwrap();
        let (rows, explain) = q.execute(&r).unwrap().into_parts();
        assert_eq!(rows, (0..r.len()).collect::<Vec<_>>());
        let text = explain.to_string();
        assert!(!text.contains("semantic"), "{text}");
        assert!(!text.contains("constraint :"), "{text}");
        assert!(text.contains("algorithm  : block-nested-loops"), "{text}");
    }
}
