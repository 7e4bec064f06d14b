//! The push path under load: four TCP workers drive mixed EXEC/APPEND
//! traffic while a separate connection WATCHes the skyline. Every
//! request must succeed, and the WATCH snapshot with every pushed delta
//! applied in arrival order must be exactly the final answer — the
//! maintenance identity `max(P, A∪B) = max(P, max(P,A)∪B)` observed
//! through the wire, so a lost, duplicated or reordered delta fails.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use pref_server::{Client, Server, ServerState};
use pref_sql::PrefSql;
use pref_workload::cars;
use pref_workload::sessions::session_scripts;

const WATCHED: &str = "SELECT * FROM car PREFERRING LOWEST(price)";

/// Rendered rows as a multiset.
fn multiset<'a>(rows: impl IntoIterator<Item = &'a String>) -> HashMap<String, usize> {
    let mut counts = HashMap::new();
    for row in rows {
        *counts.entry(row.clone()).or_default() += 1;
    }
    counts
}

#[test]
fn watch_delivers_under_open_loop_load_with_zero_errors() {
    let mut db = PrefSql::new();
    db.register("car", cars::catalog(2_000, 13));
    let server = Server::bind(ServerState::new(db), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let mut watcher = Client::connect(addr).expect("watcher connects");
    let snapshot = watcher
        .request(&format!("WATCH {WATCHED}"))
        .expect("watch round-trips");
    assert!(snapshot.is_ok(), "{}", snapshot.status);
    let mut answer = multiset(&snapshot.body);

    // The request mix: refinement sessions interleaved round-robin, with
    // a dominating APPEND woven in every 16 requests. The generator
    // clamps catalog prices at 500 and the appended prices descend from
    // 499, so each one strictly improves the watched answer — the delta
    // stream cannot go quiet by accident.
    let scripts = session_scripts(4, 8, 13);
    let longest = scripts
        .iter()
        .map(|s| s.statements.len())
        .max()
        .unwrap_or(0);
    let mut statements: Vec<String> = (0..longest)
        .flat_map(|step| scripts.iter().filter_map(move |s| s.statements.get(step)))
        .map(|sql| format!("EXEC {sql}"))
        .collect();
    let mut price = 499i64;
    let mut at = 8;
    while at <= statements.len() {
        statements.insert(
            at,
            format!(
                "APPEND car\t'VW'\t'compact'\t'red'\t'manual'\t{price}\t75\t9000\t2000\t350\t38\t3"
            ),
        );
        price -= 1;
        at += 16;
    }

    // Four workers, one connection each, take statements off a shared
    // ticket until the list runs out.
    let next = AtomicUsize::new(0);
    let failures: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).expect("worker connects");
                    let mut failed = Vec::new();
                    // Relaxed: the ticket only needs atomic uniqueness;
                    // the statement list is immutable.
                    while let Some(line) = statements.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let reply = client.request(line).expect("request round-trips");
                        if !reply.is_ok() {
                            failed.push(format!("{line} -> {}", reply.status));
                        }
                    }
                    failed
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load worker panicked"))
            .collect()
    });
    assert!(
        failures.is_empty(),
        "requests failed under load: {failures:?}"
    );

    // Fold the delta stream into the snapshot, in arrival order, until
    // 500 ms pass with no frame.
    let mut pushes = 0;
    loop {
        let push = match watcher.wait_push(Duration::from_millis(500)) {
            Ok(push) => push,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
            Err(e) => panic!("watch stream broke: {e}"),
        };
        pushes += 1;
        for line in &push.body {
            if let Some(row) = line.strip_prefix('+') {
                *answer.entry(row.to_string()).or_default() += 1;
            } else if let Some(row) = line.strip_prefix('-') {
                let count = answer
                    .get_mut(row)
                    .unwrap_or_else(|| panic!("retracts a row not in the answer: {line}"));
                *count -= 1;
                if *count == 0 {
                    answer.remove(row);
                }
            } else {
                panic!("malformed delta: {:?}", push.body);
            }
        }
    }
    assert!(pushes >= 1, "watch stream went silent under load");

    let fin = watcher
        .request(&format!("EXEC {WATCHED}"))
        .expect("final query round-trips");
    assert!(fin.is_ok(), "{}", fin.status);
    assert!(watcher.take_pushes().is_empty(), "a push after the drain");
    assert_eq!(
        answer,
        multiset(fin.body.iter().skip(1)),
        "snapshot + deltas diverged from the final answer"
    );

    server.shutdown();
    // Meaningful under `--cfg lock_diag`, trivially true otherwise.
    assert!(
        parking_lot::lock_diag::cycle_report().is_none(),
        "lock-order cycle under load:\n{}",
        parking_lot::lock_diag::cycle_report().unwrap_or_default()
    );
}
