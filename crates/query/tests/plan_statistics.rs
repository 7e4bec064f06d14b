//! A prepared query plans once; its `stats` line reads the relation it
//! is explained or executed on, every time. The plans are the ones the
//! engine's snapshot tier used to produce, with every estimate taken
//! from the row count alone.

use pref_core::prelude::*;
use pref_query::{Engine, Prepared};
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

/// A default engine: the shape rule reads no thread count.
fn engine() -> Engine {
    Engine::new()
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

/// Plan (without executing), then execute, `q` over `r`: the planned
/// report in full, and the lines of the executed report that differ
/// from it — generation-normalized.
fn report(q: &Prepared, heading: &str, r: &Relation, names: &[(u64, &str)]) -> String {
    let planned = q.explain(r).lines();
    let ran = q.execute(r).unwrap().explain().lines();
    let mut out = format!("== {heading}\n");
    for line in &planned {
        out.push_str(&normalize(line, names));
        out.push('\n');
    }
    for line in ran.iter().filter(|l| !planned.contains(l)) {
        out.push_str(&format!("executed: {}\n", normalize(line, names)));
    }
    out
}

/// [`report`] of every term over `r`, each on a fresh prepared query.
fn reports(engine: &Engine, state: &str, r: &Relation, names: &[(u64, &str)]) -> String {
    let mut out = String::new();
    for (name, p) in terms() {
        let q = engine.prepare(&p, r.schema()).unwrap();
        out += &report(&q, &format!("{state} / {name}"), r, names);
    }
    out
}

#[test]
fn plans_equal_the_snapshot_tier_literals() {
    let engine = engine();
    let mut actual = String::new();

    let mut r = table();
    let g0 = r.generation();
    actual += &reports(&engine, "base", &r, &[(g0, "<table>")]);
    // One query prepared and run on the base table, kept for reuse.
    let (name, prior) = terms().swap_remove(1);
    let reused = engine.prepare(&prior, r.schema()).unwrap();
    reused.execute(&r).unwrap();

    let v = upper_half(&r);
    let names = [(g0, "<table>"), (v.generation(), "<view>")];
    actual += &reports(&engine, "view", &v, &names);

    // The same table after an append and a delete.
    r.push_values(vec![Value::from(9), Value::from(9), Value::from("w")])
        .unwrap();
    let names = [(r.generation(), "<table>")];
    actual += &reports(&engine, "after append", &r, &names);
    // The reused query reports the table it runs on now, not the one it
    // was prepared and first run on.
    let heading = format!("reused prepared after append / {name}");
    actual += &report(&reused, &heading, &r, &names);
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
/// stanza from the table with the delete straight after the append. The
/// `est. result` of every `stats` line is the estimate from the row count
/// alone: `ln n` rows for a base or `rank(F)` node.
const EXPECTED: &str = include_str!("plan_statistics.expected");
