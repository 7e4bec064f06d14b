//! A declared constraint holds on the wire too: an `APPEND` that would
//! break it is an `ERR`, and the table the next statement sees is the
//! one the previous statement saw.

use pref_relation::{attr, Constraint, DataType, Relation, Schema, Value};
use pref_server::ServerState;
use pref_sql::PrefSql;

#[test]
fn a_violating_append_is_refused_and_changes_nothing() {
    let schema = Schema::new(vec![("cat", DataType::Str), ("price", DataType::Int)])
        .unwrap()
        .with_constraint(Constraint::Constant { attr: attr("cat") })
        .unwrap();
    let mut car = Relation::empty(schema);
    for price in [10, 20, 30] {
        car.push_values(vec![Value::from("used"), Value::from(price)])
            .unwrap();
    }
    let mut db = PrefSql::new();
    db.register("car", car);
    let state = ServerState::new(db);
    let mut s = state.session();

    // CONSTANT(cat) licenses the pushdown: the winnow runs on the table.
    let query = "EXEC SELECT * FROM car WHERE cat = 'used' PREFERRING LOWEST(price)";
    let before = s.handle_line(query);
    assert!(before.is_ok(), "{}", before.status);
    assert_eq!(
        before.body.last().map(String::as_str),
        Some("  ('used', 10)")
    );
    // Generation and delta of the catalog table, as the server holds it.
    let version = || {
        let db = state.db().read();
        let car = db.catalog().get("car").unwrap();
        let bases = car.delta().map(|d| d.bases().to_vec());
        (car.len(), car.generation(), bases)
    };
    let untouched = version();

    let reply = s.handle_line("APPEND car\t'new'\t5");
    assert_eq!(
        reply.status,
        "ERR constraint CONSTANT(cat) violated by value 'new'"
    );
    assert_eq!(s.handle_line(query), before, "the answer must not move");
    assert_eq!(version(), untouched, "no row, no generation, no delta base");

    // An append that keeps the constraint true is served as ever.
    assert!(s.handle_line("APPEND car\t'used'\t5").is_ok());
    let after = s.handle_line(query);
    assert_eq!(after.body.last().map(String::as_str), Some("  ('used', 5)"));
}
