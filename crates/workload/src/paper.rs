//! The literal datasets and preference terms of the paper's Examples
//! 1–11, shared by the integration tests and the `repro` harness so that
//! every consumer reproduces exactly the published figures.

use pref_core::prelude::*;
use pref_core::term::Pref;
use pref_relation::{rel, Relation};

/// Example 1 / Example 8: the EXPLICIT color preference
/// `EXPLICIT(Color, {(green, yellow), (green, red), (yellow, white)})`.
pub fn example1_pref() -> Pref {
    explicit(
        "color",
        [("green", "yellow"), ("green", "red"), ("yellow", "white")],
    )
    .expect("the paper's graph is acyclic")
}

/// Example 1's color domain as a one-column relation.
pub fn example1_domain() -> Relation {
    rel! {
        ("color": Str);
        ("white",), ("red",), ("yellow",), ("green",), ("brown",), ("black",),
    }
}

/// Example 2 / Example 4: `R(A1, A2, A3)` with val1 … val7.
pub fn example2_relation() -> Relation {
    rel! {
        ("A1": Int, "A2": Int, "A3": Int);
        (-5, 3, 4),   // val1
        (-5, 4, 4),   // val2
        (5, 1, 8),    // val3
        (5, 6, 6),    // val4
        (-6, 0, 6),   // val5
        (-6, 0, 4),   // val6
        (6, 2, 7),    // val7
    }
}

/// Example 2's `P4 = (P1 ⊗ P2) ⊗ P3` with `P1 = AROUND(A1, 0)`,
/// `P2 = LOWEST(A2)`, `P3 = HIGHEST(A3)`.
pub fn example2_pref() -> Pref {
    around("A1", 0).pareto(lowest("A2")).pareto(highest("A3"))
}

/// Example 3: `P7 = P5 ⊗ P6` on the shared attribute Color.
pub fn example3_pref() -> Pref {
    pos("color", ["green", "yellow"]).pareto(neg("color", ["red", "green", "blue", "purple"]))
}

/// Example 3's color set S.
pub fn example3_relation() -> Relation {
    rel! {
        ("color": Str);
        ("red",), ("green",), ("yellow",), ("blue",), ("black",), ("purple",),
    }
}

/// Example 4's `P8 = P1 & P2`.
pub fn example4_p8() -> Pref {
    around("A1", 0).prior(lowest("A2"))
}

/// Example 4's `P9 = (P1 ⊗ P2) & P3`.
pub fn example4_p9() -> Pref {
    around("A1", 0).pareto(lowest("A2")).prior(highest("A3"))
}

/// Example 5: `R(A1, A2)` with val1 … val6.
pub fn example5_relation() -> Relation {
    rel! {
        ("A1": Int, "A2": Int);
        (-5, 3), (-5, 4), (5, 1), (5, 6), (-6, 0), (-6, 0),
    }
}

/// Example 5: `P3 = rank(F)(P1, P2)` with `f1 = distance(x, 0)`,
/// `f2 = distance(x, −2)` and `F(x1, x2) = x1 + 2·x2`.
pub fn example5_pref() -> Pref {
    let f1 = score("A1", "distance(·,0)", |v| v.ordinal().map(|o| o.abs()));
    let f2 = score("A2", "distance(·,-2)", |v| {
        v.ordinal().map(|o| (o + 2.0).abs())
    });
    Pref::rank(CombineFn::weighted_sum(vec![1.0, 2.0]), vec![f1, f2])
        .expect("SCORE operands are rank(F)-compatible")
}

/// Example 6: Julia's five customer preferences.
pub fn example6_julia() -> Vec<Pref> {
    vec![
        pos_pos("category", ["cabriolet"], ["roadster"]).expect("disjoint sets"),
        pos("transmission", ["automatic"]),
        around("horsepower", 100),
        lowest("price"),
        neg("color", ["gray"]),
    ]
}

/// Example 6: `Q1 = P5 & ((P1 ⊗ P2 ⊗ P3) & P4)`.
pub fn example6_q1() -> Pref {
    let [p1, p2, p3, p4, p5]: [Pref; 5] = example6_julia().try_into().expect("five preferences");
    p5.prior(p1.pareto(p2).pareto(p3).prior(p4))
}

/// Example 6: `Q2 = (Q1 & P6) & P7` with the dealer's additions
/// `P6 = HIGHEST(year)`, `P7 = HIGHEST(commission)`.
pub fn example6_q2() -> Pref {
    example6_q1()
        .prior(highest("year"))
        .prior(highest("commission"))
}

/// Example 6: Leslie's color taste `P8`.
pub fn example6_leslie_color() -> Pref {
    pos_neg("color", ["blue"], ["gray", "red"]).expect("disjoint sets")
}

/// Example 6: the renegotiated `Q1* = (P5 ⊗ P8 ⊗ P4) & (P1 ⊗ P2 ⊗ P3)`.
pub fn example6_q1_star() -> Pref {
    let [p1, p2, p3, p4, p5]: [Pref; 5] = example6_julia().try_into().expect("five preferences");
    let p8 = example6_leslie_color();
    p5.pareto(p8).pareto(p4).prior(p1.pareto(p2).pareto(p3))
}

/// Example 6: `Q2* = (Q1* & P6) & P7`.
pub fn example6_q2_star() -> Pref {
    example6_q1_star()
        .prior(highest("year"))
        .prior(highest("commission"))
}

/// Example 7: the Car-DB over (price, mileage).
pub fn example7_cardb() -> Relation {
    rel! {
        ("price": Int, "mileage": Int);
        (40_000, 15_000),  // val1
        (35_000, 30_000),  // val2
        (20_000, 10_000),  // val3
        (15_000, 35_000),  // val4
        (15_000, 30_000),  // val5
    }
}

/// Example 7's `P = LOWEST(price) ⊗ LOWEST(mileage)`.
pub fn example7_pref() -> Pref {
    lowest("price").pareto(lowest("mileage"))
}

/// Example 8's database set `R(Color) = {yellow, red, green, black}`.
pub fn example8_relation() -> Relation {
    rel! {
        ("color": Str);
        ("yellow",), ("red",), ("green",), ("black",),
    }
}

/// Example 9's preference `HIGHEST(fuel_economy) ⊗ HIGHEST(insurance_rating)`.
pub fn example9_pref() -> Pref {
    highest("fuel_economy").pareto(highest("insurance_rating"))
}

/// Example 9's three growing Cars instances.
pub fn example9_series() -> Vec<Relation> {
    let r1 = rel! {
        ("fuel_economy": Int, "insurance_rating": Int, "nickname": Str);
        (100, 3, "frog"), (50, 3, "cat"),
    };
    let r2 = rel! {
        ("fuel_economy": Int, "insurance_rating": Int, "nickname": Str);
        (100, 3, "frog"), (50, 3, "cat"), (50, 10, "shark"),
    };
    let r3 = rel! {
        ("fuel_economy": Int, "insurance_rating": Int, "nickname": Str);
        (100, 3, "frog"), (50, 3, "cat"), (50, 10, "shark"), (100, 10, "turtle"),
    };
    vec![r1, r2, r3]
}

/// Example 10's Cars(Make, Price, Oid).
pub fn example10_relation() -> Relation {
    rel! {
        ("make": Str, "price": Int, "oid": Int);
        ("Audi", 40_000, 1),
        ("BMW", 35_000, 2),
        ("VW", 20_000, 3),
        ("BMW", 50_000, 4),
    }
}

/// Example 11's `R(A) = {3, 6, 9}`.
pub fn example11_relation() -> Relation {
    rel! { ("a": Int); (3,), (6,), (9,) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_query::bmo::sigma_naive_generic as sigma;

    #[test]
    fn all_fixtures_compile_against_their_relations() {
        assert!(!sigma(&example1_pref(), &example1_domain())
            .unwrap()
            .is_empty());
        assert!(!sigma(&example2_pref(), &example2_relation())
            .unwrap()
            .is_empty());
        assert!(!sigma(&example3_pref(), &example3_relation())
            .unwrap()
            .is_empty());
        assert!(!sigma(&example5_pref(), &example5_relation())
            .unwrap()
            .is_empty());
        assert!(!sigma(&example7_pref(), &example7_cardb())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn example6_terms_cover_the_car_schema() {
        let schema = crate::cars::car_schema();
        for q in [
            example6_q1(),
            example6_q2(),
            example6_q1_star(),
            example6_q2_star(),
        ] {
            for a in q.attributes().iter() {
                assert!(schema.index_of(a).is_some(), "{a} missing from car schema");
            }
        }
    }

    #[test]
    fn example6_attribute_counts_match_paper() {
        // Q1 over {color, category, transmission, horsepower, price};
        // Q2 additionally over year and commission.
        assert_eq!(example6_q1().attributes().len(), 5);
        assert_eq!(example6_q2().attributes().len(), 7);
        assert_eq!(example6_q1_star().attributes().len(), 5);
    }
}
