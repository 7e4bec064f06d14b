//! `repro` — regenerate the paper's experiments: Examples 1–11 (`e1`…
//! `e11`), `laws`, `decomp`, `hierarchy`, the `x1`–`x4` measurements,
//! `langs` and `opt` (`main` is the section list).
//!
//! ```bash
//! cargo run --release -p pref-bench --bin repro            # everything
//! cargo run --release -p pref-bench --bin repro -- e7 x1   # a selection
//! ```
//!
//! Each section prints the paper's expected artifact next to what this
//! implementation measures; the process exits non-zero if any expectation
//! fails, so the harness doubles as an acceptance test.

use pref_bench::{row, skyline_pref, table, time_ms};
use pref_core::algebra::{equivalent_on, laws};
use pref_core::graph::BetterGraph;
use pref_core::prelude::*;
use pref_core::term::Pref;
use pref_query::bmo::sigma_naive_generic;
use pref_query::quality::perfect_match;
use pref_query::stats::{result_size, FilterEffectReport};
use pref_query::{Algorithm, Engine, Explain, Optimizer};
use pref_relation::{attr, AttrSet, Relation};
use pref_sql::PrefSql;
use pref_workload::{cars, paper, querylog, synthetic::Distribution, trips};
use pref_xpath::{parse_xml, PrefXPath};

struct Harness {
    failures: Vec<String>,
    /// The one engine every experiment evaluates through.
    engine: Engine,
}

impl Harness {
    /// `σ[P](R)`: row indices plus the execution's report.
    fn sigma(&self, p: &Pref, r: &Relation) -> (Vec<usize>, Explain) {
        let q = self.engine.prepare(p, r.schema()).expect("term compiles");
        q.execute(r).expect("query runs").into_parts()
    }

    /// `σ[P](R)` as the sub-relation of best matches.
    fn sigma_rel(&self, p: &Pref, r: &Relation) -> Relation {
        r.take_rows(&self.sigma(p, r).0)
    }

    fn check(&mut self, experiment: &str, what: &str, ok: bool) {
        let mark = if ok { "ok " } else { "FAIL" };
        println!("  [{mark}] {what}");
        if !ok {
            self.failures.push(format!("{experiment}: {what}"));
        }
    }
}

fn heading(id: &str, title: &str) {
    println!("\n━━ {id} ── {title}");
}

fn graph_of(p: &Pref, r: &Relation) -> BetterGraph {
    let c = CompiledPref::compile(p, r.schema()).expect("fixture compiles");
    BetterGraph::from_relation(&c, r).expect("fixture is an SPO")
}

fn labels(prefix: &str, n: usize) -> Vec<String> {
    (1..=n).map(|i| format!("{prefix}{i}")).collect()
}

fn e1(h: &mut Harness) {
    heading(
        "E1",
        "Example 1: EXPLICIT color preference better-than graph",
    );
    let g = graph_of(&paper::example1_pref(), &paper::example1_domain());
    let names = ["white", "red", "yellow", "green", "brown", "black"].map(String::from);
    print!("{}", g.render(&names));
    h.check(
        "E1",
        "levels: white,red | yellow | green | brown,black",
        g.level_groups() == vec![vec![0, 1], vec![2], vec![3], vec![4, 5]],
    );
}

fn e2(h: &mut Harness) {
    heading("E2", "Example 2: Pareto (AROUND ⊗ LOWEST) ⊗ HIGHEST on R");
    let r = paper::example2_relation();
    let g = graph_of(&paper::example2_pref(), &r);
    print!("{}", g.render(&labels("val", 7)));
    h.check(
        "E2",
        "Pareto-optimal set {val1, val3, val5}",
        g.maximal() == vec![0, 2, 4],
    );
    h.check(
        "E2",
        "level 2 = {val2, val4, val6, val7}",
        g.level_groups().get(1) == Some(&vec![1, 3, 5, 6]),
    );
}

fn e3(h: &mut Harness) {
    heading("E3", "Example 3: Pareto on the shared attribute Color");
    let r = paper::example3_relation();
    let g = graph_of(&paper::example3_pref(), &r);
    let names = ["red", "green", "yellow", "blue", "black", "purple"].map(String::from);
    print!("{}", g.render(&names));
    h.check(
        "E3",
        "level 1 = {green, yellow, black} (non-discriminating compromise)",
        g.maximal() == vec![1, 2, 4],
    );
}

fn e4(h: &mut Harness) {
    heading("E4", "Example 4: prioritised accumulation graphs P8, P9");
    let r = paper::example2_relation();
    let g8 = graph_of(&paper::example4_p8(), &r);
    println!("P8 = P1 & P2:");
    print!("{}", g8.render(&labels("val", 7)));
    h.check(
        "E4",
        "P8 levels: val1,val3 | val2,val4 | val5,val6,val7",
        g8.level_groups() == vec![vec![0, 2], vec![1, 3], vec![4, 5, 6]],
    );
    let g9 = graph_of(&paper::example4_p9(), &r);
    println!("P9 = (P1 ⊗ P2) & P3:");
    print!("{}", g9.render(&labels("val", 7)));
    h.check(
        "E4",
        "P9 levels: val1,val3,val5 | rest",
        g9.level_groups() == vec![vec![0, 2, 4], vec![1, 3, 5, 6]],
    );
}

fn e5(h: &mut Harness) {
    heading("E5", "Example 5: rank(F) with F = x1 + 2·x2");
    let r = paper::example5_relation();
    let p = paper::example5_pref();
    let c = CompiledPref::compile(&p, r.schema()).expect("fixture compiles");
    let f: Vec<f64> = r
        .iter()
        .map(|t| c.utility(t).expect("rank utility"))
        .collect();
    println!("F-values: {f:?}");
    h.check(
        "E5",
        "F-values 15, 17, 11, 21, 10, 10",
        f == vec![15.0, 17.0, 11.0, 21.0, 10.0, 10.0],
    );
    let g = graph_of(&p, &r);
    print!("{}", g.render(&labels("val", 6)));
    h.check(
        "E5",
        "5 levels: val4 → val2 → val1 → val3 → {val5, val6}",
        g.level_groups() == vec![vec![3], vec![1], vec![0], vec![2], vec![4, 5]],
    );
    h.check("E5", "not a chain (val5, val6 unranked)", !g.is_chain());
}

fn e6(h: &mut Harness) {
    heading(
        "E6",
        "Example 6: preference engineering scenario on a catalog",
    );
    let stock = cars::catalog(2_000, 2002);
    for (name, q) in [
        ("Q1 ", paper::example6_q1()),
        ("Q2 ", paper::example6_q2()),
        ("Q1*", paper::example6_q1_star()),
        ("Q2*", paper::example6_q2_star()),
    ] {
        let res = h.sigma_rel(&q, &stock);
        println!("  σ[{name}] → {} best matches", res.len());
        h.check(
            "E6",
            &format!("{name} nonempty, no flooding"),
            !res.is_empty() && res.len() < 200,
        );
    }
}

fn e7(h: &mut Harness) {
    heading("E7", "Example 7: non-discrimination theorem on Car-DB");
    let r = paper::example7_cardb();
    let p1 = lowest("price");
    let p2 = lowest("mileage");
    let pareto = p1.clone().pareto(p2.clone());
    let g = graph_of(&pareto, &r);
    print!("{}", g.render(&labels("val", 5)));
    h.check("E7", "⊗ maxima {val3, val5}", g.maximal() == vec![2, 4]);

    let chain1: Vec<usize> = graph_of(&p1.clone().prior(p2.clone()), &r)
        .level_groups()
        .into_iter()
        .flatten()
        .collect();
    h.check(
        "E7",
        "P1&P2 chain val5→val4→val3→val2→val1",
        chain1 == vec![4, 3, 2, 1, 0],
    );
    let chain2: Vec<usize> = graph_of(&p2.clone().prior(p1.clone()), &r)
        .level_groups()
        .into_iter()
        .flatten()
        .collect();
    h.check(
        "E7",
        "P2&P1 chain val3→val1→val5→val2→val4",
        chain2 == vec![2, 0, 4, 1, 3],
    );

    let nondisc = p1
        .clone()
        .prior(p2.clone())
        .intersect(p2.prior(p1))
        .expect("same attribute set");
    h.check(
        "E7",
        "P1 ⊗ P2 ≡ (P1 & P2) ♦ (P2 & P1)",
        equivalent_on(&pareto, &nondisc, &r).expect("fixtures compile"),
    );
}

fn e8(h: &mut Harness) {
    heading("E8", "Example 8: BMO query σ[P](R) on R(Color)");
    let r = paper::example8_relation();
    let p = paper::example1_pref();
    let res = h.sigma_rel(&p, &r);
    let colors: Vec<&str> = res.iter().map(|t| t[0].as_str().unwrap()).collect();
    println!("  σ[P](R) = {colors:?}");
    h.check(
        "E8",
        "result {yellow, red}",
        colors == vec!["yellow", "red"],
    );
    h.check(
        "E8",
        "red is a perfect match",
        perfect_match(&p, &r, r.row(1)).expect("compiles") == Some(true),
    );
}

fn e9(h: &mut Harness) {
    heading("E9", "Example 9: non-monotonicity of σ[P](Cars)");
    let p = paper::example9_pref();
    let expected = [vec!["frog"], vec!["frog", "shark"], vec!["turtle"]];
    for (i, (r, want)) in paper::example9_series().iter().zip(&expected).enumerate() {
        let res = h.sigma_rel(&p, r);
        let names: Vec<&str> = res.iter().map(|t| t[2].as_str().unwrap()).collect();
        println!("  |Cars| = {} → σ[P] = {names:?}", r.len());
        h.check("E9", &format!("step {} = {want:?}", i + 1), &names == want);
    }
}

fn e10(h: &mut Harness) {
    heading("E10", "Example 10: prioritised accumulation via grouping");
    let r = paper::example10_relation();
    let q = antichain(["make"]).prior(around("price", 40_000));
    let res = h.sigma_rel(&q, &r);
    for t in res.iter() {
        println!("  {t}");
    }
    let oids: Vec<i64> = res.iter().map(|t| t[2].as_int().unwrap()).collect();
    h.check("E10", "result oids {1, 2, 3}", oids == vec![1, 2, 3]);
    h.check(
        "E10",
        "Prop. 10 decomposition agrees",
        h.engine.sigma_decomposed(&q, &r).expect("compiles") == vec![0, 1, 2],
    );
}

fn e11(h: &mut Harness) {
    heading("E11", "Example 11: Pareto decomposition with YY");
    let r = paper::example11_relation();
    let p1 = lowest("a");
    let p2 = highest("a");
    let (full, _) = h.sigma(&Pref::Pareto(vec![p1.clone(), p2.clone()]), &r);
    h.check("E11", "σ[P1⊗P2](R) = R = {3,6,9}", full == vec![0, 1, 2]);
    let yy = h
        .engine
        .yy(&p1.clone().prior(p2.clone()), &p2.prior(p1), &r)
        .expect("compiles");
    println!(
        "  YY(P1&P2, P2&P1)_R = {:?}",
        yy.iter().map(|&i| r.row(i)[0].clone()).collect::<Vec<_>>()
    );
    h.check("E11", "YY = {6}", yy == vec![1]);
}

fn laws_report(h: &mut Harness) {
    heading("L2-L6", "the preference algebra's law collection");
    let sample = pref_relation::rel! {
        ("a": Int, "b": Int);
        (1, 9), (1, 2), (5, 0), (5, 9), (3, 3), (2, 2), (2, 3), (0, 0),
    };
    let operand = around("a", 2).pareto(lowest("b"));
    for law in laws::unary_laws() {
        let (lhs, rhs) = (law.build)(operand.clone());
        h.check(
            "laws",
            law.name,
            equivalent_on(&lhs, &rhs, &sample).expect("compiles"),
        );
    }
    let shared = (pos("a", [1i64, 5]), neg("a", [2i64, 5]));
    let disjoint = (around("a", 2), lowest("b"));
    for law in laws::binary_laws() {
        let (p1, p2) = match law.requires {
            laws::Requires::SameAttrs => shared.clone(),
            laws::Requires::DisjointAttrs | laws::Requires::Nothing => disjoint.clone(),
            laws::Requires::DisjointRanges => continue,
        };
        let (lhs, rhs) = (law.build)(p1, p2);
        h.check(
            "laws",
            law.name,
            equivalent_on(&lhs, &rhs, &sample).expect("compiles"),
        );
    }
    for law in laws::ternary_laws() {
        let (p1, p2, p3) = match law.requires {
            laws::Requires::SameAttrs => (pos("a", [1i64]), neg("a", [5i64]), around("a", 3)),
            laws::Requires::DisjointRanges => continue,
            _ => (around("a", 2), lowest("b"), highest("a")),
        };
        let (lhs, rhs) = (law.build)(p1, p2, p3);
        h.check(
            "laws",
            law.name,
            equivalent_on(&lhs, &rhs, &sample).expect("compiles"),
        );
    }
}

fn decomp_report(h: &mut Harness) {
    heading(
        "L7-L12",
        "query decomposition theorems vs. the naive oracle",
    );
    let r = cars::catalog(400, 77);
    let terms = vec![
        lowest("price").pareto(lowest("mileage")),
        pos("color", ["red"]).pareto(around("price", 12_000)),
        pos("color", ["red"]).prior(lowest("price")),
        lowest("price").prior(lowest("mileage")),
        antichain(["make"]).prior(around("price", 12_000)),
        lowest("price")
            .prior(lowest("mileage"))
            .intersect(lowest("mileage").prior(lowest("price")))
            .expect("same attrs"),
    ];
    for p in terms {
        let naive = sigma_naive_generic(&p, &r).expect("compiles");
        let dec = h.engine.sigma_decomposed(&p, &r).expect("compiles");
        h.check(
            "decomp",
            &format!("σ-decomposed ≡ σ-naive for {p}"),
            naive == dec,
        );
    }
}

fn hierarchy_report(h: &mut Harness) {
    heading("F1", "§3.4 sub-constructor hierarchies");
    use pref_core::algebra::equiv::equivalent_values;
    use pref_core::algebra::hierarchy as hier;
    use pref_core::base::*;
    let nums: Vec<pref_relation::Value> = (0..12).map(pref_relation::Value::from).collect();
    let cats: Vec<pref_relation::Value> = ["a", "b", "c", "d", "e"]
        .iter()
        .map(|s| pref_relation::Value::from(*s))
        .collect();

    let a = Around::new(5);
    h.check(
        "F1",
        "AROUND ≼ BETWEEN",
        equivalent_values(&a, &hier::around_as_between(&a), &nums),
    );
    h.check(
        "F1",
        "AROUND ≼ SCORE",
        equivalent_values(&a, &hier::around_as_score(&a), &nums),
    );
    h.check(
        "F1",
        "HIGHEST ≼ SCORE",
        equivalent_values(&Highest::new(), &hier::highest_as_score(), &nums),
    );
    h.check(
        "F1",
        "LOWEST ≼ SCORE",
        equivalent_values(&Lowest::new(), &hier::lowest_as_score(), &nums),
    );
    let pos_b = Pos::new(["a", "b"]);
    h.check(
        "F1",
        "POS ≼ POS/POS",
        equivalent_values(&pos_b, &hier::pos_as_pos_pos(&pos_b), &cats),
    );
    h.check(
        "F1",
        "POS ≼ POS/NEG",
        equivalent_values(&pos_b, &hier::pos_as_pos_neg(&pos_b), &cats),
    );
    let neg_b = Neg::new(["d"]);
    h.check(
        "F1",
        "NEG ≼ POS/NEG",
        equivalent_values(&neg_b, &hier::neg_as_pos_neg(&neg_b), &cats),
    );
    let pp = PosPos::new(["a"], ["b"]).expect("disjoint");
    h.check(
        "F1",
        "POS/POS ≼ EXPLICIT",
        equivalent_values(&pp, &hier::pos_pos_as_explicit(&pp), &cats),
    );
    h.check(
        "F1",
        "POS ≡ POS-set↔ ⊕ others↔",
        equivalent_values(&pos_b, &hier::pos_as_linear_sum(&pos_b), &cats),
    );

    let r = pref_relation::rel! { ("a": Int, "b": Int); (1,9),(1,2),(5,0),(5,9),(3,3),(2,2) };
    let prior = highest("a").prior(highest("b"));
    let ranked = hier::prior_as_rank(
        pref_core::term::BasePref::new("a", Highest::new()),
        pref_core::term::BasePref::new("b", Highest::new()),
        1.0,
        10.0,
    )
    .expect("score operands");
    h.check(
        "F1",
        "& ≼ rank(F) (quantised scores)",
        equivalent_on(&prior, &ranked, &r).expect("compiles"),
    );
}

fn filter_effect(h: &mut Harness) {
    heading("X1", "Prop. 13 / §5.5: the AND/OR filter effect of ⊗ and &");
    let widths = [16usize, 10, 10, 10, 10, 10];
    println!(
        "{}",
        row(
            &[
                "workload".into(),
                "size(P1)".into(),
                "size(P2)".into(),
                "P1&P2".into(),
                "P2&P1".into(),
                "P1⊗P2".into()
            ],
            &widths
        )
    );
    let mut all_ok = true;
    for (name, r, p1, p2) in [
        (
            "cars n=5000",
            cars::catalog(5_000, 4),
            lowest("price"),
            lowest("mileage"),
        ),
        (
            "anti-corr d=2",
            table(5_000, 2, Distribution::Anticorrelated, 9),
            highest("d0"),
            highest("d1"),
        ),
        (
            "correlated d=2",
            table(5_000, 2, Distribution::Correlated, 9),
            highest("d0"),
            highest("d1"),
        ),
    ] {
        let rep = FilterEffectReport::measure(&h.engine, &p1, &p2, &r).expect("compiles");
        println!(
            "{}",
            row(
                &[
                    name.into(),
                    rep.size_p1.to_string(),
                    rep.size_p2.to_string(),
                    rep.size_p1_prior_p2.to_string(),
                    rep.size_p2_prior_p1.to_string(),
                    rep.size_pareto.to_string(),
                ],
                &widths
            )
        );
        all_ok &= rep.inequalities_hold();
    }
    h.check(
        "X1",
        "size(Pi&Pj) ≤ size(Pi) ≤ ... ≤ size(P1⊗P2) inequalities",
        all_ok,
    );
}

fn eshop(h: &mut Harness) {
    heading(
        "X2",
        "[KFH01]: Pareto BMO result sizes 'a few to a few dozens'",
    );
    // Full customer queries: a hard search-mask narrowing (make/category,
    // price cap) plus the Pareto preference — the shape the product
    // benchmark measured over real query logs.
    let catalog = cars::catalog(20_000, 7);
    let log = querylog::customer_log(200, 41);
    let mut sizes: Vec<usize> = Vec::with_capacity(log.len());
    for q in &log {
        let candidates = q.candidates(&catalog);
        if candidates.is_empty() {
            continue; // the shop shows "no match" before preferences run
        }
        sizes.push(result_size(&h.engine, &q.preference, &candidates).expect("compiles"));
    }
    sizes.sort_unstable();
    let n = sizes.len();
    let bucket = |lo: usize, hi: usize| sizes.iter().filter(|&&s| s >= lo && s <= hi).count();
    println!(
        "  {} queries with nonempty candidates (catalog n = {})",
        n,
        catalog.len()
    );
    println!(
        "  1: {:3}   2-10: {:3}   11-50: {:3}   >50: {:3}",
        bucket(1, 1),
        bucket(2, 10),
        bucket(11, 50),
        bucket(51, usize::MAX)
    );
    let median = sizes[n / 2];
    println!(
        "  median {median}  p75 {}  p90 {}  max {}",
        sizes[(n * 3) / 4],
        sizes[(n * 9) / 10],
        sizes[n - 1]
    );
    h.check(
        "X2",
        "median within 'a few to a few dozens' (1..=50)",
        (1..=50).contains(&median),
    );
    h.check(
        "X2",
        "at least 75% of queries within 1..=50",
        bucket(1, 50) * 4 >= n * 3,
    );
}

fn scaling(h: &mut Harness) {
    heading(
        "X3",
        "naive O(n²) vs. BNL vs. D&C vs. SFS (3-d skyline, ms)",
    );
    let d = 3;
    let p = &skyline_pref(d);
    let widths = [14usize, 8, 9, 9, 9, 9];
    let head = ["distribution", "n", "naive", "bnl", "dnc", "sfs"].map(String::from);
    println!("{}", row(&head, &widths));
    // One engine per algorithm, forced and without a cache: every run
    // compiles, builds what its algorithm needs and evaluates.
    let [naive, bnl, dnc, sfs] = [
        Algorithm::Naive,
        Algorithm::Bnl,
        Algorithm::Dnc,
        Algorithm::Sfs,
    ]
    .map(|a| Engine::with_optimizer(Optimizer::new().with_algorithm(a)).with_capacity(0));
    let run = |engine: &Engine, r: &Relation| {
        let q = engine.prepare(p, r.schema()).expect("compiles");
        q.execute(r).expect("the algorithm applies").into_rows()
    };
    let mut sane = true;
    for dist in [
        Distribution::Correlated,
        Distribution::Independent,
        Distribution::Anticorrelated,
    ] {
        for n in [1_000usize, 4_000, 16_000] {
            let r = table(n, d, dist, 42);
            let (res_naive, t_naive) = if n <= 4_000 {
                let (out, t) = time_ms(|| run(&naive, &r));
                (Some(out), format!("{t:.1}"))
            } else {
                (None, "—".into())
            };
            let (res_bnl, t_bnl) = time_ms(|| run(&bnl, &r));
            let (res_dnc, t_dnc) = time_ms(|| run(&dnc, &r));
            let (res_sfs, t_sfs) = time_ms(|| run(&sfs, &r));
            sane &= res_bnl == res_dnc && res_dnc == res_sfs;
            if let Some(rn) = res_naive {
                sane &= rn == res_bnl;
            }
            println!(
                "{}",
                row(
                    &[
                        dist.name().into(),
                        n.to_string(),
                        t_naive,
                        format!("{t_bnl:.1}"),
                        format!("{t_dnc:.1}"),
                        format!("{t_sfs:.1}"),
                    ],
                    &widths
                )
            );
        }
    }
    h.check("X3", "all algorithms agree on every cell", sane);
}

fn topk(h: &mut Harness) {
    heading("X4", "§6.2 ranked query model: BMO vs. k-best");
    let r = table(10_000, 2, Distribution::Independent, 13);
    let p = Pref::rank(
        CombineFn::weighted_sum(vec![1.0, 1.0]),
        vec![highest("d0"), highest("d1")],
    )
    .expect("score operands");
    let (bmo, _) = h.sigma(&p, &r);
    let top = h.engine.top_k(&p, &r, 10).expect("scored");
    println!(
        "  BMO result size: {} (rank(F) is almost a chain)",
        bmo.len()
    );
    println!(
        "  top-10 returns {} tuples incl. non-maximal ones",
        top.len()
    );
    h.check("X4", "BMO of a rank(F) chain is tiny (≤ 3)", bmo.len() <= 3);
    h.check("X4", "k-best returns exactly k", top.len() == 10);
    h.check(
        "X4",
        "k-best is a superset of BMO",
        bmo.iter().all(|i| top.contains(i)),
    );
}

fn langs(h: &mut Harness) {
    heading("Q1/Q2", "§6.1 sample queries in both languages");
    let mut db = PrefSql::new();
    db.register("car", cars::catalog(500, 3));
    db.register("trips", trips::trips(300, 5));
    let q1 = "SELECT * FROM car WHERE make = 'Opel' \
              PREFERRING (category = 'roadster' ELSE category <> 'van' AND \
              price AROUND 40000 AND HIGHEST(horsepower)) \
              CASCADE color = 'red' CASCADE LOWEST(mileage);";
    let r1 = db.execute(q1).expect("paper query 1 runs");
    println!("  Preference SQL car query → {} rows", r1.relation.len());
    h.check(
        "langs",
        "Preference SQL car query parses and runs",
        !r1.relation.is_empty(),
    );

    let q2 = "SELECT * FROM trips \
              PREFERRING start_date AROUND '2001/11/23' AND duration AROUND 14 \
              BUT ONLY DISTANCE(start_date)<=2 AND DISTANCE(duration)<=2;";
    let r2 = db.execute(q2).expect("paper query 2 runs");
    println!(
        "  Preference SQL trips query → {} rows within the corridor",
        r2.relation.len()
    );
    h.check("langs", "BUT ONLY corridor respected", {
        let target = pref_relation::Date::parse("2001/11/23").unwrap();
        r2.relation.iter().all(|t| {
            (t[1].as_date().unwrap().days() - target.days()).abs() <= 2
                && (t[2].as_int().unwrap() - 14).abs() <= 2
        })
    });

    let xml = r#"<CARS>
      <CAR fuel_economy="48" horsepower="90"  color="black" price="9800"  mileage="60000"/>
      <CAR fuel_economy="40" horsepower="120" color="white" price="10100" mileage="35000"/>
      <CAR fuel_economy="48" horsepower="120" color="red"   price="12000" mileage="20000"/>
    </CARS>"#;
    let doc = parse_xml(xml).expect("well-formed");
    let engine = PrefXPath::new(&doc);
    let hits = engine
        .query("/CARS/CAR #[(@fuel_economy)highest and (@horsepower)highest]#")
        .expect("Q1 parses");
    println!("  Preference XPath Q1 → {} node(s)", hits.len());
    h.check(
        "langs",
        "XPath Q1 skyline",
        hits.len() == 1 && doc.node(hits[0]).attr("color") == Some("red"),
    );
    let hits2 = engine
        .query(
            "/CARS/CAR #[(@color)in(\"black\", \"white\")prior to(@price)around 10000]##[(@mileage)lowest]#",
        )
        .expect("Q2 parses");
    println!("  Preference XPath Q2 → {} node(s)", hits2.len());
    h.check(
        "langs",
        "XPath Q2 prioritised + second soft step",
        hits2.len() == 1,
    );
}

fn optimizer_report(h: &mut Harness) {
    heading(
        "OPT",
        "optimizer: rewriting + algorithm selection (Prop. 7)",
    );
    let r = cars::catalog(2_000, 15);
    // The shape rule: D&C for chain skylines, the key-lane window (behind
    // a Prop. 10 head split for a single-lane head) for other key orders,
    // BNL for orders without key lanes.
    let engine = Engine::new();
    let (sfs, red) = ("sort-filter-skyline", pos("color", ["red"]));
    for (q, expect_algo) in [
        (
            lowest("price").pareto(highest("year")),
            "divide-and-conquer",
        ),
        (lowest("price").prior(red.clone()), sfs),
        (around("price", 9_000).pareto(lowest("mileage")), sfs),
        (red.clone().pareto(neg("make", ["Fiat"])), sfs),
        (
            lowest("price").pareto(highest("year")).prior(red.clone()),
            "block-nested-loops",
        ),
    ] {
        let prepared = engine.prepare(&q, r.schema()).expect("term compiles");
        let (rows, ex) = prepared.execute(&r).expect("query runs").into_parts();
        println!("  {} → {} ({} rows)", ex.original, ex.algorithm, rows.len());
        h.check(
            "OPT",
            &format!("{} picked for {}", expect_algo, ex.original),
            ex.algorithm.to_string() == expect_algo,
        );
        let naive = sigma_naive_generic(&q, &r).expect("compiles");
        h.check("OPT", "matches the naive oracle", rows == naive);
    }
    // Grouping entry point (Def. 16).
    let grouped = engine
        .sigma_groupby(&around("price", 12_000), &AttrSet::single(attr("make")), &r)
        .expect("compiles");
    h.check(
        "OPT",
        "groupby returns one best offer per make (≥ #makes)",
        grouped.len() >= 10,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(id));

    println!("repro — Foundations of Preferences in Database Systems (VLDB 2002)");
    println!("paper-expected vs. measured, per section");

    let mut h = Harness {
        failures: vec![],
        engine: Engine::new(),
    };
    if want("e1") {
        e1(&mut h);
    }
    if want("e2") {
        e2(&mut h);
    }
    if want("e3") {
        e3(&mut h);
    }
    if want("e4") {
        e4(&mut h);
    }
    if want("e5") {
        e5(&mut h);
    }
    if want("e6") {
        e6(&mut h);
    }
    if want("e7") {
        e7(&mut h);
    }
    if want("e8") {
        e8(&mut h);
    }
    if want("e9") {
        e9(&mut h);
    }
    if want("e10") {
        e10(&mut h);
    }
    if want("e11") {
        e11(&mut h);
    }
    if want("laws") {
        laws_report(&mut h);
    }
    if want("decomp") {
        decomp_report(&mut h);
    }
    if want("hierarchy") {
        hierarchy_report(&mut h);
    }
    if want("x1") || want("filter") {
        filter_effect(&mut h);
    }
    if want("x2") || want("eshop") {
        eshop(&mut h);
    }
    if want("x3") || want("scaling") {
        scaling(&mut h);
    }
    if want("x4") || want("topk") {
        topk(&mut h);
    }
    if want("langs") {
        langs(&mut h);
    }
    if want("opt") {
        optimizer_report(&mut h);
    }

    println!();
    if h.failures.is_empty() {
        println!("all expectations reproduced ☺");
    } else {
        println!("{} expectation(s) FAILED:", h.failures.len());
        for f in &h.failures {
            println!("  - {f}");
        }
        std::process::exit(1);
    }
}
