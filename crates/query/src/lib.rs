//! # pref-query — BMO preference query evaluation
//!
//! Section 5 of Kießling's *Foundations of Preferences in Database
//! Systems*: the Best-Matches-Only query model
//! `σ[P](R) = {t ∈ R | t[A] ∈ max(P_R)}`, treating preferences as soft
//! constraints with automatic query relaxation — no empty-result problem,
//! no flooding effect.
//!
//! One way in: [`Engine::prepare`] compiles a term once and
//! [`Prepared::execute`] evaluates `σ[P](R)`. Nothing else compiles a
//! term and runs it: the [`algorithms`] kernels are handed a compiled
//! term and a dominance backend, and [`bmo::sigma_naive_generic`] is the
//! naive Def. 15 oracle every route is checked against. One report out:
//! every execution returns an [`Explain`], rendered by
//! [`Explain::lines`].
//!
//! * [`bmo`] — the declarative O(n²) reference semantics (Def. 15);
//! * [`algorithms`] — the BNL, divide & conquer maxima and
//!   sort-filter-skyline kernels, all sequential;
//! * [`decompose`] — the decomposition theorems (Prop. 8–12) as an
//!   executable divide & conquer evaluator, incl. `YY` sets;
//! * [`engine`] — the prepared-query engine's tier resolution: score
//!   matrices by `(relation generation, term fingerprint)` and
//!   maintained results, both stored in the one bounded LRU type of
//!   `cache`, with the Chomicki result-maintenance classifier a pure
//!   function in `maintain`;
//! * `prepared` — [`Prepared`] and its `MaintainedResult` (re-exported
//!   from [`engine`]): plan, probe the tiers, run the algorithm, report;
//! * [`groupby`] — `σ[P groupby A](R)` (Def. 16), an operator of
//!   [`Prepared`] on its engine-cached matrix;
//! * [`quality`] — LEVEL/DISTANCE quality functions and the `BUT ONLY`
//!   filter over row values, perfect matches (Def. 14b), and the k-best
//!   and top-k operators of [`Prepared`] (§6.2);
//! * [`negotiate`] — §7 e-negotiation groundwork: level-based
//!   relaxation and two-party negotiation tables over the Pareto
//!   frontier;
//! * [`optimizer`] — the engine's configuration ([`Optimizer`]), the
//!   algorithm dispatch, and the [`Explain`] report;
//! * [`plan`] — the semantic planner: rewrite derivations,
//!   constraint-registry redundancy proofs, and algorithm choice by the
//!   term's shape (D&C for chain skylines, the key-lane window kernel for
//!   other flat key orders and single-lane or anti-chain heads, BNL
//!   otherwise),
//!   made once per prepare as a [`plan::Plan`];
//! * [`stats`] — result sizes and filter strength (Def. 18/19, Prop. 13).
//!
//! ## Example
//!
//! ```
//! use pref_core::prelude::*;
//! use pref_query::Engine;
//! use pref_relation::rel;
//!
//! let cars = rel! {
//!     ("price": Int, "mileage": Int);
//!     (40_000, 15_000), (35_000, 30_000), (20_000, 10_000),
//!     (15_000, 35_000), (15_000, 30_000),
//! };
//! let p = lowest("price").pareto(lowest("mileage"));
//! let query = Engine::new().prepare(&p, cars.schema()).unwrap();
//! let best = query.execute_rel(&cars).unwrap();
//! assert_eq!(best.len(), 2); // the Pareto-optimal offers
//! ```

pub mod algorithms;
pub mod bmo;
mod cache;
pub mod decompose;
pub mod engine;
pub mod error;
pub mod groupby;
mod maintain;
pub mod negotiate;
pub mod optimizer;
pub mod plan;
mod prepared;
pub mod quality;
pub mod stats;

pub use engine::{CacheStats, Engine, Prepared};
pub use error::QueryError;
pub use optimizer::{Algorithm, CacheStatus, Explain, Optimizer};
pub use plan::{selection_commutes, Candidate, Plan, PlanStep, RelationPlan};
