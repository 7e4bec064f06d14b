//! # pref-core — preferences as strict partial orders
//!
//! A faithful implementation of the preference model of
//!
//! > W. Kießling. *Foundations of Preferences in Database Systems.*
//! > VLDB 2002.
//!
//! Preferences are strict partial orders `P = (A, <P)` over attribute
//! domains (Def. 1), constructed inductively (Def. 5) from
//!
//! * **base preferences** on single attributes — non-numerical
//!   (POS, NEG, POS/NEG, POS/POS, EXPLICIT; Def. 6) and numerical
//!   (AROUND, BETWEEN, LOWEST, HIGHEST, SCORE; Def. 7) — see [`base`];
//! * **complex constructors** — Pareto `⊗`, prioritised `&`,
//!   numerical `rank(F)`, intersection `♦`, disjoint union `+`, dual
//!   `∂` and anti-chains (Def. 3, 8–12) — see [`term`].
//!
//! On top of the model sit the better-than graphs of Def. 2 ([`graph`]),
//! strict-partial-order validation ([`spo`]) and the preference algebra of
//! Section 4 ([`algebra`]): term equivalence, the laws of Prop. 2–6
//! including the discrimination and non-discrimination theorems, a
//! law-driven term simplifier, and the sub-constructor hierarchies of
//! §3.4.
//!
//! BMO query evaluation (`σ[P](R)`, Section 5) lives in the `pref-query`
//! crate; this crate provides the compiled point-wise semantics
//! ([`eval::CompiledPref`]) it builds on.
//!
//! ## Example
//!
//! ```
//! use pref_core::prelude::*;
//! use pref_relation::rel;
//!
//! // Julia's wishes from the paper's Example 6:
//! let p1 = pos_pos("category", ["cabriolet"], ["roadster"]).unwrap();
//! let p2 = pos("transmission", ["automatic"]);
//! let p3 = around("horsepower", 100);
//! let p4 = lowest("price");
//! let p5 = neg("color", ["gray"]);
//! let q1 = p5.prior(p1.pareto(p2).pareto(p3).prior(p4));
//! assert_eq!(q1.attributes().len(), 5);
//!
//! let cars = rel! {
//!     ("category": Str, "transmission": Str, "horsepower": Int,
//!      "price": Int, "color": Str);
//!     ("cabriolet", "automatic", 110, 20_000, "red"),
//!     ("sedan", "manual", 100, 15_000, "gray"),
//! };
//! let compiled = CompiledPref::compile(&q1, cars.schema()).unwrap();
//! assert!(compiled.better(cars.row(1), cars.row(0)));
//! ```

pub mod algebra;
pub mod base;
mod dominance;
pub mod error;
pub mod eval;
pub mod graph;
mod matrix;
pub mod repo;
pub mod spo;
pub mod term;
pub mod text;

pub use error::CoreError;

/// Everything needed to build and evaluate preferences.
pub mod prelude {
    pub use crate::algebra::{equivalent_on, simplify, simplify_traced, RewriteStep};
    pub use crate::base::{BasePreference, BaseRef};
    pub use crate::error::CoreError;
    pub use crate::eval::CompiledPref;
    pub use crate::graph::BetterGraph;
    pub use crate::repo::Repository;
    pub use crate::term::{
        antichain, around, between, explicit, highest, layered, lowest, neg, pos, pos_neg, pos_pos,
        score, BasePref, CombineFn, Pref,
    };
    pub use crate::text::parse_term;
}
