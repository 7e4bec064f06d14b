//! Concurrency properties of the shared engine and server sessions: N
//! threads hammering one engine — ad-hoc WHERE statements, prepared and
//! parameterized statements, interleaved mutations — must produce
//! exactly the answers the same request sequences produce serially on a
//! fresh engine. The shared cache may change *how* a result is served
//! (hit vs window vs rebuild, depending on interleaving); it must never
//! change *what* is served.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use preferences::prefsql::PrefSql;
use preferences::query::engine::Engine;
use preferences::server::{ServerState, Session, WatchSink};
use preferences::workload::cars;
use preferences::workload::querylog::{prepare_log, query_log, replay};
use preferences::workload::sessions::session_scripts;
use proptest::prelude::*;

/// Drive one session through `requests`, collecting each full reply
/// (status + body) as one comparable string.
fn transcript(session: &mut Session, requests: &[String]) -> Vec<String> {
    requests
        .iter()
        .map(|line| {
            let reply = session.handle_line(line);
            assert!(
                reply.is_ok(),
                "request failed: {line}\n  -> {}",
                reply.status
            );
            let mut s = reply.status;
            for l in reply.body {
                s.push('\n');
                s.push_str(&l);
            }
            s
        })
        .collect()
}

/// The per-thread request mix: a refinement chain of EXEC statements
/// plus a parameterized prepared statement executed under several
/// bindings. Threads with the same parity share one preference term, so
/// some threads contend on the same cache entries and others don't.
fn thread_requests(tid: usize, seed: u64) -> (Vec<String>, Vec<String>) {
    let script = &session_scripts(tid + 1, 6, seed)[tid];
    let around = 10_000 + (tid % 2) * 8_000;
    let mut phase1 = vec![format!(
        "PREPARE best SELECT * FROM car WHERE price <= $1 \
         PREFERRING price AROUND {around} AND LOWEST(mileage)"
    )];
    phase1.extend(script.statements.iter().map(|sql| format!("EXEC {sql}")));
    for cap in [30_000, 22_000, 18_000] {
        phase1.push(format!("EXECUTE best\t{}", cap + tid * 500));
    }
    // After the interleaved mutation: re-run a slice of phase 1 (now
    // over the mutated table) plus fresh bindings.
    let mut phase2 = phase1[1..3.min(phase1.len())].to_vec();
    phase2.push(format!("EXECUTE best\t{}", 25_000 + tid * 250));
    (phase1, phase2)
}

/// The rows thread 0 appends between the phases: cheap, dominating
/// offers that *change* BMO answers if any session saw them (and
/// must change them for every session afterwards).
fn mutation_requests() -> Vec<String> {
    vec![
        "APPEND car\t'VW'\t'compact'\t'red'\t'manual'\t900\t60\t4000\t2001\t80\t40\t2".to_string(),
        "APPEND car\t'BMW'\t'roadster'\t'black'\t'automatic'\t1100\t190\t2500\t2001\t90\t22\t9"
            .to_string(),
    ]
}

fn serve_cars(rows: usize, seed: u64) -> std::sync::Arc<ServerState> {
    let mut db = PrefSql::new();
    db.register("car", cars::catalog(rows, seed));
    ServerState::new(db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// 4 threads × (prepared + parameterized + WHERE traffic) with a
    /// barrier-fenced mutation in the middle: every thread's concurrent
    /// transcript must equal its serial transcript on a fresh engine.
    #[test]
    fn concurrent_sessions_agree_with_serial_execution(seed in 0u64..1_000) {
        const THREADS: usize = 4;
        let requests: Vec<(Vec<String>, Vec<String>)> =
            (0..THREADS).map(|tid| thread_requests(tid, seed)).collect();

        // Serial oracle: fresh state, every phase-1 script in thread
        // order, the mutation, every phase-2 script in thread order.
        let serial_state = serve_cars(250, seed);
        let serial: Vec<(Vec<String>, Vec<String>)> = {
            let mut sessions: Vec<Session> =
                (0..THREADS).map(|_| serial_state.session()).collect();
            let p1: Vec<Vec<String>> = sessions
                .iter_mut()
                .zip(&requests)
                .map(|(s, (p1, _))| transcript(s, p1))
                .collect();
            transcript(&mut sessions[0], &mutation_requests());
            let p2: Vec<Vec<String>> = sessions
                .iter_mut()
                .zip(&requests)
                .map(|(s, (_, p2))| transcript(s, p2))
                .collect();
            p1.into_iter().zip(p2).collect()
        };

        // Concurrent run: same scripts, all threads at once, the
        // mutation fenced by barriers so the data is stable within each
        // phase (results must be deterministic; *cache paths* may vary).
        let state = serve_cars(250, seed);
        let barrier = Barrier::new(THREADS);
        let concurrent: Vec<(Vec<String>, Vec<String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .iter()
                .enumerate()
                .map(|(tid, (p1, p2))| {
                    let state = &state;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut session = state.session();
                        let t1 = transcript(&mut session, p1);
                        barrier.wait();
                        if tid == 0 {
                            transcript(&mut session, &mutation_requests());
                        }
                        barrier.wait();
                        let t2 = transcript(&mut session, p2);
                        (t1, t2)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("session thread")).collect()
        });

        for (tid, (conc, ser)) in concurrent.iter().zip(&serial).enumerate() {
            prop_assert_eq!(conc, ser, "thread {} transcript diverged from serial", tid);
        }
    }
}

/// Engine-level: four threads replaying the same prepared query log
/// over one shared engine agree with a serial replay on a fresh engine,
/// and the lock-free stats add up (every execution is accounted hit,
/// shard-rebuild, or miss — none lost to racing counters).
#[test]
fn shared_engine_replay_matches_serial_and_stats_add_up() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 3;
    let catalog = cars::catalog(400, 7);
    let log = query_log(12, 21);

    let serial_engine = Engine::new();
    let serial_prepared = prepare_log(&serial_engine, &log, catalog.schema()).unwrap();
    let expected = replay(&serial_prepared, &catalog).unwrap();

    let engine = Engine::new();
    let prepared = prepare_log(&engine, &log, catalog.schema()).unwrap();
    let totals: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let prepared = &prepared;
                let catalog = &catalog;
                scope.spawn(move || {
                    (0..ROUNDS)
                        .map(|_| replay(prepared, catalog).unwrap())
                        .collect::<Vec<usize>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay thread"))
            .collect()
    });
    assert!(
        totals.iter().all(|&t| t == expected),
        "concurrent replay diverged: {totals:?} != {expected}"
    );

    // Counter accounting. Matrix-backed executions always count exactly
    // one of hits / maintained_hits / misses. Terms that
    // never materialize (Bypass) count nothing on their *first* (cold)
    // execution but serve — and count — result-tier hits afterwards, so
    // under concurrency the exact total depends on how many threads
    // raced each cold execution: bound it from both sides instead.
    let materializing = serial_prepared
        .iter()
        .filter(|q| q.execute(&catalog).unwrap().explain().materialized)
        .count() as u64;
    let stats = engine.cache_stats();
    let matrix_executions = (THREADS * ROUNDS) as u64 * materializing;
    let total_executions = (THREADS * ROUNDS * serial_prepared.len()) as u64;
    let accounted = stats.hits + stats.maintained_hits + stats.misses;
    assert!(
        accounted >= matrix_executions,
        "atomic counters lost updates: {stats:?} over {matrix_executions} matrix executions"
    );
    assert!(
        accounted <= total_executions,
        "counters over-account: {stats:?} over {total_executions} executions"
    );
    assert_eq!(
        stats.maintained_hits, 0,
        "no mutations ran, so nothing was maintained"
    );
    // Concurrent first-round builds may duplicate work (by design: the
    // build runs outside the lock), but warm traffic must dominate.
    assert!(
        stats.misses < matrix_executions / 2,
        "cache not effective under concurrency: {stats:?}"
    );

    // Under `--cfg lock_diag` builds every acquisition above fed the
    // global lock-order graph; any cycle (potential deadlock) would
    // already have panicked mid-run, and this closes the loop in case a
    // future detector downgrades panics to recording. No-op otherwise.
    assert!(
        parking_lot::lock_diag::cycle_report().is_none(),
        "lock-order cycle under concurrent replay:\n{}",
        parking_lot::lock_diag::cycle_report().unwrap_or_default()
    );
}

/// An in-memory push sink for watch sessions: delivered frames
/// accumulate in a shared string.
#[derive(Clone, Default)]
struct CapturedSink(std::sync::Arc<parking_lot::Mutex<String>>);

impl std::io::Write for CapturedSink {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .push_str(std::str::from_utf8(b).expect("utf8 frames"));
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Parse captured bytes into push-frame bodies (status lines dropped:
/// watch ids differ across runs, the delta lines are the contract).
fn push_bodies(captured: &str) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    let mut cur: Option<Vec<String>> = None;
    for line in captured.lines() {
        match cur.as_mut() {
            None => {
                assert!(line.starts_with("PUSH "), "not a push status: {line}");
                cur = Some(Vec::new());
            }
            Some(body) => {
                if line == "." {
                    out.push(cur.take().unwrap());
                } else {
                    body.push(line.to_string());
                }
            }
        }
    }
    assert!(cur.is_none(), "truncated frame in {captured:?}");
    out
}

/// Wait until a sink has at least `at_least` complete frames and the
/// stream has stopped growing for `settle`.
fn drained_stream(
    sink: &CapturedSink,
    at_least: usize,
    settle: std::time::Duration,
) -> Vec<Vec<String>> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut last_len = usize::MAX;
    let mut stable_since = std::time::Instant::now();
    loop {
        let captured = sink.0.lock().clone();
        let frames = push_bodies(&captured);
        if frames.len() != last_len {
            last_len = frames.len();
            stable_since = std::time::Instant::now();
        }
        if frames.len() >= at_least && stable_since.elapsed() >= settle {
            return frames;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "push stream never stabilized at {at_least}+ frames: {frames:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Satellite of the maintained-result work: the delta stream watchers
/// receive is a pure function of the *commit order* of mutations —
/// concurrent query traffic (which races the mutations for the engine's
/// cache and may shift every cache tier decision) must not change one
/// byte of it, and two watchers of the same statement must see
/// identical streams.
#[test]
fn concurrent_watchers_see_the_serial_delta_stream() {
    const WATCH_SQL: &str = "WATCH SELECT * FROM car PREFERRING LOWEST(price)";
    let append = |price: i64| {
        format!("APPEND car\t'VW'\t'compact'\t'red'\t'manual'\t{price}\t75\t9000\t2000\t350\t38\t3")
    };
    // The generator clamps catalog prices at 500, so descending appends
    // below 500 each improve the watched answer; the 9 999 append and
    // its delete touch only dominated rows and must push *nothing*.
    let mutations = [
        append(499),
        append(9_999),
        append(498),
        "DELETE FROM car WHERE price = 498".to_string(),
        append(497),
        "DELETE FROM car WHERE price = 9999".to_string(),
    ];

    // Serial oracle: one watcher, mutations applied with no other
    // traffic at all.
    let serial_sink = CapturedSink::default();
    let serial_state = serve_cars(300, 11);
    let mut serial_watcher = serial_state.session_with_sink(WatchSink::new(serial_sink.clone()));
    assert!(serial_watcher.handle_line(WATCH_SQL).is_ok());
    let mut mutator = serial_state.session();
    for m in &mutations {
        assert!(mutator.handle_line(m).is_ok(), "{m}");
    }
    let expected = drained_stream(&serial_sink, 1, std::time::Duration::from_millis(300));
    assert!(
        expected.len() < mutations.len(),
        "dominated mutations must stay silent: {expected:?}"
    );

    // Concurrent run: two watchers, the same mutation sequence from one
    // thread, and three threads hammering reads the whole time.
    let state = serve_cars(300, 11);
    let sinks = [CapturedSink::default(), CapturedSink::default()];
    let _watchers: Vec<Session> = sinks
        .iter()
        .map(|sink| {
            let mut w = state.session_with_sink(WatchSink::new(sink.clone()));
            assert!(w.handle_line(WATCH_SQL).is_ok());
            w
        })
        .collect();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for tid in 0..3 {
            let state = &state;
            let done = &done;
            scope.spawn(move || {
                let mut s = state.session();
                let sql = format!(
                    "EXEC SELECT * FROM car WHERE price <= {} \
                     PREFERRING price AROUND 9000 AND LOWEST(mileage)",
                    20_000 + tid * 1_000
                );
                // A stop flag with no payload to publish: Relaxed.
                while !done.load(Ordering::Relaxed) {
                    assert!(s.handle_line(&sql).is_ok());
                    assert!(s
                        .handle_line("EXEC SELECT * FROM car PREFERRING LOWEST(price)")
                        .is_ok());
                }
            });
        }
        let mut mutator = state.session();
        for m in &mutations {
            assert!(mutator.handle_line(m).is_ok(), "{m}");
        }
        // Same stop flag; the scope join is the synchronization point.
        done.store(true, Ordering::Relaxed);
    });

    for sink in &sinks {
        let got = drained_stream(sink, expected.len(), std::time::Duration::from_millis(300));
        assert_eq!(
            got, expected,
            "concurrent watcher diverged from the serial delta stream"
        );
    }
}
