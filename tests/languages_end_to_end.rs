//! End-to-end tests of the two query languages of §6.1 against the same
//! data, cross-checking that Preference SQL, Preference XPath and the
//! builder API produce identical best-match sets.

use preferences::prefsql::PrefSql;
use preferences::prelude::*;
use preferences::workload::{cars, trips};

/// An XML rendering of a relation, attributes in schema order.
fn to_xml(r: &Relation, element: &str, root: &str) -> String {
    let mut s = format!("<{root}>\n");
    for t in r.iter() {
        s.push_str(&format!("  <{element}"));
        for (f, v) in r.schema().fields().iter().zip(t.values()) {
            let raw = match v {
                Value::Str(x) => x.to_string(),
                other => other.to_string(),
            };
            s.push_str(&format!(" {}=\"{}\"", f.name, raw));
        }
        s.push_str("/>\n");
    }
    s.push_str(&format!("</{root}>\n"));
    s
}

#[test]
fn sql_and_xpath_agree_on_a_skyline() {
    let catalog = cars::catalog(400, 99);

    // SQL side.
    let mut db = PrefSql::new();
    db.register("car", catalog.clone());
    let sql = db
        .execute("SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)")
        .expect("well-formed query");

    // XPath side, over the XML rendering of the same catalog.
    let xml = to_xml(&catalog, "CAR", "CARS");
    let doc = parse_xml(&xml).expect("generated XML is well-formed");
    let hits = PrefXPath::new(&doc)
        .query("/CARS/CAR #[(@price)lowest and (@mileage)lowest]#")
        .expect("valid path");

    // Builder side.
    let direct = Engine::new()
        .prepare(&lowest("price").pareto(lowest("mileage")), catalog.schema())
        .and_then(|q| q.execute(&catalog))
        .expect("catalog schema covers the preference")
        .into_rows();

    assert_eq!(sql.relation.len(), hits.len());
    assert_eq!(sql.relation.len(), direct.len());

    // Same (price, mileage) value sets.
    let price_col = catalog.schema().index_of(&attr("price")).unwrap();
    let mileage_col = catalog.schema().index_of(&attr("mileage")).unwrap();
    let mut sql_vals: Vec<(i64, i64)> = sql
        .relation
        .iter()
        .map(|t| {
            (
                t[price_col].as_int().unwrap(),
                t[mileage_col].as_int().unwrap(),
            )
        })
        .collect();
    let mut xpath_vals: Vec<(i64, i64)> = hits
        .iter()
        .map(|&id| {
            let e = doc.node(id);
            (
                e.attr("price").unwrap().parse().unwrap(),
                e.attr("mileage").unwrap().parse().unwrap(),
            )
        })
        .collect();
    sql_vals.sort_unstable();
    xpath_vals.sort_unstable();
    assert_eq!(sql_vals, xpath_vals);
}

#[test]
fn paper_sample_queries_parse_and_run() {
    let mut db = PrefSql::new();
    db.register("car", cars::catalog(500, 3));
    db.register("trips", trips::trips(300, 5));

    // §6.1 query 1 (adapted: `power` is `horsepower` in our schema).
    let q1 = "SELECT * FROM car WHERE make = 'Opel' \
              PREFERRING (category = 'roadster' ELSE category <> 'van' AND \
              price AROUND 40000 AND HIGHEST(horsepower)) \
              CASCADE color = 'red' CASCADE LOWEST(mileage);";
    let r1 = db.execute(q1).expect("paper query 1 runs");
    assert!(!r1.relation.is_empty());

    // §6.1 query 2 verbatim.
    let q2 = "SELECT * FROM trips \
              PREFERRING start_date AROUND '2001/11/23' AND duration AROUND 14 \
              BUT ONLY DISTANCE(start_date)<=2 AND DISTANCE(duration)<=2;";
    let r2 = db.execute(q2).expect("paper query 2 runs");
    // The BUT ONLY corridor may trim the BMO set, but whatever remains
    // must satisfy the corridor.
    let date_col = 1; // start_date
    let dur_col = 2; // duration
    let target = Date::parse("2001/11/23").unwrap();
    for t in r2.relation.iter() {
        let d = t[date_col].as_date().unwrap();
        assert!((d.days() - target.days()).abs() <= 2);
        let dur = t[dur_col].as_int().unwrap();
        assert!((dur - 14).abs() <= 2);
    }
}

#[test]
fn xpath_q1_q2_verbatim() {
    // The exact Q1/Q2 strings of §6.1.
    let xml = r#"<CARS>
      <CAR fuel_economy="48" horsepower="90"  color="black" price="9800"  mileage="60000"/>
      <CAR fuel_economy="40" horsepower="120" color="white" price="10100" mileage="35000"/>
      <CAR fuel_economy="48" horsepower="120" color="red"   price="12000" mileage="20000"/>
      <CAR fuel_economy="35" horsepower="80"  color="black" price="9900"  mileage="42000"/>
    </CARS>"#;
    let doc = parse_xml(xml).expect("well-formed");
    let engine = PrefXPath::new(&doc);

    let q1 = engine
        .query("/CARS/CAR #[(@fuel_economy)highest and (@horsepower)highest]#")
        .expect("Q1 parses");
    assert_eq!(q1.len(), 1); // the red car dominates
    assert_eq!(doc.node(q1[0]).attr("color"), Some("red"));

    let q2 = engine
        .query(
            "/CARS/CAR #[(@color)in(\"black\", \"white\")prior to(@price)around 10000]#\
             #[(@mileage)lowest]#",
        )
        .expect("Q2 parses");
    assert_eq!(q2.len(), 1);
    // Color favorites: rows 0, 1, 3. Equal colors refine by price:
    // black 9800 beats black 9900; white 10100 stays. Then lowest
    // mileage: white (35000) wins over black (60000).
    assert_eq!(doc.node(q2[0]).attr("color"), Some("white"));
}

#[test]
fn sql_explain_reports_algorithm_and_rewrite() {
    let mut db = PrefSql::new();
    db.register("car", cars::catalog(100, 1));
    let res = db
        .execute("SELECT * FROM car PREFERRING LOWEST(price) AND HIGHEST(year)")
        .expect("well-formed");
    let explain = res.explain.expect("preference queries carry explains");
    assert_eq!(explain.algorithm, Algorithm::Dnc);
    let res = db
        .execute("SELECT * FROM car PREFERRING color = 'red' PRIOR TO color <> 'gray'")
        .expect("well-formed");
    let explain = res.explain.expect("preference queries carry explains");
    // Shared attribute: Prop. 4a discrimination rewrites P1 & P2 to P1.
    assert!(explain.rewritten);
}

#[test]
fn multi_party_conflicts_never_crash() {
    // Desideratum (4) across the whole stack: customer and vendor
    // preferences conflict head-on.
    let mut db = PrefSql::new();
    db.register("car", cars::catalog(200, 8));
    let res = db
        .execute(
            "SELECT * FROM car \
             PREFERRING LOWEST(price) AND HIGHEST(price) AND \
             color = 'red' AND color <> 'red'",
        )
        .expect("conflicts are not errors");
    assert!(!res.relation.is_empty());
}
