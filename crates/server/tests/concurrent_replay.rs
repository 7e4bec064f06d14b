//! The acceptance bar for the shared server: four sessions replaying
//! the customer query log concurrently, all sharing one catalog and one
//! engine, must produce byte-identical result sets to a serial replay
//! on a fresh server. Concurrency may change which cache tier serves a
//! request — never the bytes of the answer.

use std::sync::Arc;

use pref_query::Engine;
use pref_server::{ServerState, Session};
use pref_sql::PrefSql;
use pref_workload::cars;
use pref_workload::sessions::{session_scripts, sql_customer_log};

fn serve_cars(rows: usize, seed: u64) -> Arc<ServerState> {
    let mut db = PrefSql::new();
    db.register("car", cars::catalog(rows, seed));
    ServerState::new(db)
}

/// Replay `statements` through one session, returning the framed reply
/// bytes of every execution, concatenated per statement.
fn replay(session: &mut Session, statements: &[String]) -> Vec<String> {
    statements
        .iter()
        .map(|sql| {
            let reply = session.handle_line(&format!("EXEC {sql}"));
            assert!(reply.is_ok(), "{sql}\n  -> {}", reply.status);
            reply.frame()
        })
        .collect()
}

#[test]
fn four_concurrent_sessions_replay_the_customer_log_byte_identically() {
    let log = sql_customer_log(40, 17);

    // Serial oracle: one session, fresh server.
    let serial_state = serve_cars(500, 3);
    let expected = replay(&mut serial_state.session(), &log);

    // Four sessions replay the same log at once on another fresh server.
    let state = serve_cars(500, 3);
    let transcripts: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let state = &state;
                let log = &log;
                scope.spawn(move || replay(&mut state.session(), log))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay session"))
            .collect()
    });

    for (i, t) in transcripts.iter().enumerate() {
        assert_eq!(
            t, &expected,
            "session {i}: concurrent replay diverged from serial"
        );
    }

    // The point of sharing: four sessions' worth of traffic, but the
    // log's matrices were built roughly once — warm hits dominate.
    let stats = state.engine().cache_stats();
    assert!(
        stats.hits > stats.misses,
        "shared engine should serve repeats warm: {stats:?}"
    );

    // Under `--cfg lock_diag` builds, the replay above recorded every
    // catalog/cache acquisition in the lock-order graph and asserted
    // every matrix build started outside the cache-shard locks (a
    // violation panics mid-run). Belt-and-braces: no cycle was recorded.
    assert!(
        parking_lot::lock_diag::cycle_report().is_none(),
        "lock-order cycle during concurrent replay:\n{}",
        parking_lot::lock_diag::cycle_report().unwrap_or_default()
    );
}

#[test]
fn refinement_sessions_replay_identically_and_window_hit() {
    // Session-shaped traffic (anchored preferences, tightening caps):
    // each thread runs its *own* script; equality is against the same
    // script run serially, and the window tier must actually fire.
    let scripts = session_scripts(4, 10, 23);

    let serial_state = serve_cars(400, 5);
    let expected: Vec<Vec<String>> = scripts
        .iter()
        .map(|s| replay(&mut serial_state.session(), &s.statements))
        .collect();

    let state = serve_cars(400, 5);
    let transcripts: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|s| {
                let state = &state;
                scope.spawn(move || replay(&mut state.session(), &s.statements))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay session"))
            .collect()
    });

    assert_eq!(transcripts, expected);
    let stats = state.engine().cache_stats();
    assert!(
        stats.window_hits > 0,
        "tightened caps should window onto warmed tables: {stats:?}"
    );
    // See the note in the log-replay test: meaningful under
    // `--cfg lock_diag`, trivially true otherwise.
    assert!(parking_lot::lock_diag::cycle_report().is_none());
}

#[test]
fn a_capacity_zero_engine_serves_sessions_cold_and_a_shared_one_warm() {
    // Session traffic twice over: a capacity-0 engine retains nothing,
    // so no request may be served from a warm tier; the default shared
    // engine, once warmed by the first pass, must serve the replay
    // mostly warm. Both give the same bytes.
    let scripts = session_scripts(4, 10, 23);
    let run = |state: &Arc<ServerState>| -> Vec<Vec<String>> {
        (0..2)
            .flat_map(|_| {
                scripts
                    .iter()
                    .map(|s| replay(&mut state.session(), &s.statements))
            })
            .collect()
    };

    let mut db = PrefSql::new().with_engine(Engine::new().with_capacity(0));
    db.register("car", cars::catalog(400, 5));
    let cold = ServerState::new(db);
    let warm = serve_cars(400, 5);
    assert_eq!(run(&cold), run(&warm));

    let s = cold.engine().cache_stats();
    assert_eq!(
        s.hits + s.derived_hits + s.window_hits + s.shard_hits + s.maintained_hits,
        0,
        "a capacity-0 engine never serves warm: {s:?}"
    );
    let s = warm.engine().cache_stats();
    assert!(
        s.hits + s.derived_hits + s.window_hits > s.misses,
        "a warmed shared engine serves session traffic mostly warm: {s:?}"
    );
}
