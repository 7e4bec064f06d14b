//! Statistics live with the relation: the planner reads them only where
//! an estimate needs a distinct count, and the plans it makes are the
//! ones the engine's snapshot tier used to produce.

use pref_core::prelude::*;
use pref_query::{Engine, Optimizer};
use pref_relation::{predicate_fingerprint, DataType, Relation, Schema, Value};

fn table() -> Relation {
    let schema = Schema::new(vec![
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("c", DataType::Str),
    ])
    .unwrap();
    let mut r = Relation::empty(schema);
    for i in 0..40i64 {
        let c = ["x", "y", "z"][i as usize % 3];
        r.push_values(vec![
            Value::from(i % 7),
            Value::from(i * 3 % 11),
            Value::from(c),
        ])
        .unwrap();
    }
    r
}

fn upper_half(r: &Relation) -> Relation {
    r.select_derived(|t| t[0] >= Value::from(3), predicate_fingerprint(b"a >= 3"))
}

/// The four term shapes of the estimate: a top-level base, a `PRIOR TO`
/// head over a Pareto, a `rank(F)` and a Pareto.
fn terms() -> Vec<(&'static str, Pref)> {
    let pareto = lowest("a").pareto(highest("b"));
    vec![
        ("base", pos("c", ["x"])),
        ("prior", pos("c", ["x"]).prior(pareto.clone())),
        (
            "rank",
            Pref::rank(CombineFn::sum(), vec![lowest("a"), highest("b")]).unwrap(),
        ),
        ("pareto", pareto),
    ]
}

/// Two threads pinned, so the cost table does not depend on the machine.
fn engine() -> Engine {
    Engine::with_optimizer(Optimizer::new().with_threads(2))
}

#[test]
fn pareto_plans_leave_the_statistics_cell_empty() {
    let engine = engine();
    let r = table();
    let pareto = lowest("a").pareto(highest("b"));
    let q = engine.prepare(&pareto, r.schema()).unwrap();
    q.explain(&r);
    q.execute(&r).unwrap();
    // Observable through a view: it inherits whatever its base has.
    assert!(
        upper_half(&r).column_stats().is_none(),
        "a Pareto estimate reads the row count only"
    );
    let counted = pos("c", ["x"]).prior(lowest("a"));
    engine.prepare(&counted, r.schema()).unwrap().explain(&r);
    let stats = upper_half(&r)
        .column_stats()
        .expect("POS(c) read distinct(c)");
    assert_eq!(stats.generation(), r.generation());
    assert_eq!(stats.rows(), r.len());
}

/// `text` with every `generation <n>` renamed through `names`, so the
/// process-wide generation counter does not leak into the literals.
fn normalize(text: &str, names: &[(u64, &str)]) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = rest.find("generation ") {
        let (head, tail) = rest.split_at(at + "generation ".len());
        out.push_str(head);
        let digits = tail.chars().take_while(char::is_ascii_digit).count();
        let gen: u64 = tail[..digits].parse().expect("a generation number");
        match names.iter().find(|(g, _)| *g == gen) {
            Some((_, name)) => out.push_str(name),
            None => out.push_str(&tail[..digits]),
        }
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// Plan (without executing), then execute, every term over `r` on fresh
/// prepared queries: the planned report in full, and the lines of the
/// executed report that differ from it — generation-normalized.
fn reports(engine: &Engine, state: &str, r: &Relation, names: &[(u64, &str)]) -> String {
    let mut out = String::new();
    for (name, p) in terms() {
        let q = engine.prepare(&p, r.schema()).unwrap();
        let planned = q.explain(r).lines();
        let ran = q.execute(r).unwrap().explain().lines();
        out.push_str(&format!("== {state} / {name}\n"));
        for line in &planned {
            out.push_str(&normalize(line, names));
            out.push('\n');
        }
        for line in ran.iter().filter(|l| !planned.contains(l)) {
            out.push_str(&format!("executed: {}\n", normalize(line, names)));
        }
    }
    out
}

#[test]
fn plans_equal_the_snapshot_tier_literals() {
    let engine = engine();
    let mut actual = String::new();

    // A base table; its first count-reading plan gives it statistics.
    let mut r = table();
    let g0 = r.generation();
    actual += &reports(&engine, "base", &r, &[(g0, "<table>")]);

    // A derived view of a base that has statistics answers with them.
    let v = upper_half(&r);
    let names = [(g0, "<table>"), (v.generation(), "<view>")];
    actual += &reports(&engine, "view of counted base", &v, &names);

    // A derived view of a base nobody planned over has none to inherit.
    let fresh = table();
    let v = upper_half(&fresh);
    let names = [(fresh.generation(), "<table>"), (v.generation(), "<view>")];
    actual += &reports(&engine, "view of uncounted base", &v, &names);

    // The same table after an append and a delete.
    r.push_values(vec![Value::from(9), Value::from(9), Value::from("w")])
        .unwrap();
    actual += &reports(&engine, "after append", &r, &[(r.generation(), "<table>")]);
    r.delete_row(1);
    actual += &reports(&engine, "after delete", &r, &[(r.generation(), "<table>")]);

    if actual != EXPECTED {
        let diff = actual
            .lines()
            .zip(EXPECTED.lines())
            .enumerate()
            .find(|(_, (a, e))| a != e);
        panic!("plans moved; first differing line: {diff:?}\n--- actual ---\n{actual}");
    }
}

/// Captured from engine-held `ColumnStats` snapshots; the `after delete`
/// stanza from the table with the delete straight after the append.
const EXPECTED: &str = include_str!("plan_statistics.expected");
