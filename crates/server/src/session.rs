//! Sessions over one shared database.
//!
//! [`ServerState`] owns the process-wide [`PrefSql`] (catalog + engine)
//! behind a read/write lock: queries — ad hoc or prepared — take the
//! read lock, so any number of sessions execute concurrently and meet
//! only at the engine's internal cache locks; `APPEND` and `DELETE`
//! take the write lock for the in-place mutation. [`Session`] is the
//! per-connection state machine (prepared-statement handles, staged
//! bindings, the last EXPLAIN, registered watches) — the TCP server
//! drives one per connection, and tests can drive one directly with no
//! socket at all.
//!
//! `WATCH` turns a session into a push consumer: the `WatchHub`
//! re-evaluates every watched statement under the write guard of each
//! mutation that changed a row — not after a `DELETE` that matched
//! nothing — (cheap — the engine's maintained-result tier serves the
//! re-execution incrementally), diffs it against the last pushed
//! answer, and hands changed frames to a dedicated dispatcher thread.
//! Only that thread touches connection sinks, and it holds no other
//! guard while writing — a stalled client can wedge its own socket,
//! never the catalog or the registry.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use parking_lot::{Mutex, RwLock};
use pref_query::{Engine, Explain};
use pref_relation::{Relation, Value};
use pref_sql::executor::QueryResult;
use pref_sql::{PrefSql, PreparedStatement};

use crate::protocol::{push_frame, Command, Reply};

/// A connection's shared write half. The reply path and the push
/// dispatcher serialize *whole frames* through the same mutex, so a
/// push can land between a request and its reply but never inside
/// either one.
#[derive(Clone)]
pub struct WatchSink(Arc<Mutex<Box<dyn Write + Send>>>);

impl WatchSink {
    pub fn new(w: impl Write + Send + 'static) -> WatchSink {
        WatchSink(Arc::new(Mutex::new(Box::new(w))))
    }

    /// Write one already-framed message atomically.
    pub fn write_frame(&self, frame: &str) -> std::io::Result<()> {
        let mut w = self.0.lock();
        w.write_all(frame.as_bytes())?;
        w.flush()
    }
}

impl std::fmt::Debug for WatchSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WatchSink")
    }
}

/// One registered watch: the statement (prepared once, at `WATCH`),
/// where its pushes go, and the result it last pushed (the baseline the
/// next diff runs against).
#[derive(Debug)]
struct Watch {
    stmt: PreparedStatement,
    sink: WatchSink,
    last: Vec<String>,
}

/// A rendered frame en route to a sink, queued for the dispatcher.
struct PushJob {
    sink: WatchSink,
    frame: String,
}

/// The registry of live watches plus the channel to the dispatcher
/// thread that performs the actual (possibly blocking) socket writes.
#[derive(Debug)]
struct WatchHub {
    watches: Mutex<HashMap<u64, Watch>>,
    next_id: AtomicU64,
    tx: mpsc::Sender<PushJob>,
}

impl WatchHub {
    fn new() -> WatchHub {
        let (tx, rx) = mpsc::channel::<PushJob>();
        // The dispatcher owns only the receiver (no state handle), so
        // it exits when the last ServerState clone — and with it the
        // sender — drops. If the spawn itself fails, `rx` drops right
        // here and every later send fails silently: watches degrade to
        // no-ops instead of taking the server down.
        let _ = std::thread::Builder::new()
            .name("pref-server-push".to_string())
            .spawn(move || {
                for job in rx {
                    deliver_watch_frame(&job.sink, &job.frame);
                }
            });
        WatchHub {
            watches: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            tx,
        }
    }

    fn register(&self, stmt: PreparedStatement, sink: WatchSink, last: Vec<String>) -> u64 {
        // Plain unique-id counter; nothing is published through it.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.watches.lock().insert(id, Watch { stmt, sink, last });
        id
    }

    fn unregister(&self, id: u64) {
        self.watches.lock().remove(&id);
    }

    /// Re-evaluate every watch against the just-mutated catalog and
    /// queue push frames for the ones whose answer changed. Runs under
    /// the caller's catalog *write* guard, so diffs are computed — and
    /// enqueued — in commit order; the re-execution itself is cheap
    /// because the engine's maintained-result tier absorbs most
    /// mutations incrementally. Socket writes happen later, on the
    /// dispatcher thread, with no guard held.
    fn notify(&self, db: &PrefSql) {
        let mut watches = self.watches.lock();
        for (&id, w) in watches.iter_mut() {
            // A watch whose statement no longer executes (e.g. its
            // table was replaced without a column it reads) just goes
            // quiet; it still costs one failed compile per mutation
            // until unregistered.
            let Ok(res) = w.stmt.execute(db, &[]) else {
                continue;
            };
            let lines = tuple_lines(&res.relation);
            let deltas = diff_lines(&w.last, &lines);
            if deltas.is_empty() {
                continue;
            }
            w.last = lines;
            let _ = self.tx.send(PushJob {
                sink: w.sink.clone(),
                frame: push_frame(id, &deltas),
            });
        }
    }
}

/// Deliver one rendered push frame to a connection sink. Contract
/// (enforced by preflint's `no-guard-across-push` rule): the caller
/// holds NO lock guard across this call — the write can block on a
/// slow client, and the only thing it may block is that client's own
/// sink mutex.
fn deliver_watch_frame(sink: &WatchSink, frame: &str) {
    // A dead sink is not an error worth surfacing here: the watch is
    // torn down when its session drops.
    let _ = sink.write_frame(frame);
}

/// The result rows as displayed tuple lines, without the schema header
/// — the unit watched diffs are computed over.
fn tuple_lines(r: &Relation) -> Vec<String> {
    r.to_string().lines().skip(1).map(String::from).collect()
}

/// Multiset diff of rendered rows: `-line` for each copy that vanished
/// (in old order), then `+line` for each that appeared (in new order).
fn diff_lines(old: &[String], new: &[String]) -> Vec<String> {
    let mut surplus: HashMap<&String, i64> = HashMap::new();
    for l in new {
        *surplus.entry(l).or_default() += 1;
    }
    for l in old {
        *surplus.entry(l).or_default() -= 1;
    }
    let mut deltas = Vec::new();
    for l in old {
        if let Some(c) = surplus.get_mut(l) {
            if *c < 0 {
                deltas.push(format!("-{l}"));
                *c += 1;
            }
        }
    }
    for l in new {
        if let Some(c) = surplus.get_mut(l) {
            if *c > 0 {
                deltas.push(format!("+{l}"));
                *c -= 1;
            }
        }
    }
    deltas
}

/// The process-wide shared state: one catalog, one engine, all sessions.
#[derive(Debug)]
pub struct ServerState {
    db: RwLock<PrefSql>,
    /// A clone of the database's engine (shared state, same cache):
    /// lets `STATS` read the lock-free counters without touching the
    /// catalog lock at all.
    engine: Engine,
    hub: WatchHub,
}

impl ServerState {
    /// Wrap a database for serving. The engine handle is cloned out
    /// first so statistics bypass the catalog lock.
    pub fn new(db: PrefSql) -> Arc<ServerState> {
        let engine = db.engine().clone();
        Arc::new(ServerState {
            db: RwLock::new(db),
            engine,
            hub: WatchHub::new(),
        })
    }

    /// Open a new session on this state with no push sink: `WATCH` is
    /// refused, everything else works (tests, in-process replays).
    pub fn session(self: &Arc<ServerState>) -> Session {
        Session {
            state: Arc::clone(self),
            statements: HashMap::new(),
            bindings: HashMap::new(),
            last_explain: None,
            closed: false,
            sink: None,
            watches: Vec::new(),
        }
    }

    /// Open a session whose `WATCH` pushes go to `sink` — the TCP
    /// server passes the connection's shared write half, so replies
    /// and pushes interleave frame-atomically on one socket.
    pub fn session_with_sink(self: &Arc<ServerState>, sink: WatchSink) -> Session {
        let mut s = self.session();
        s.sink = Some(sink);
        s
    }

    /// The shared engine (same cache every session hits).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The shared database, for out-of-band setup in tests.
    pub fn db(&self) -> &RwLock<PrefSql> {
        &self.db
    }
}

/// One client session: statement handles and bindings are scoped to it;
/// the data and the score-matrix cache are shared with every other
/// session via [`ServerState`].
#[derive(Debug)]
pub struct Session {
    state: Arc<ServerState>,
    statements: HashMap<String, PreparedStatement>,
    bindings: HashMap<String, Vec<Value>>,
    /// The report of the last executed statement, rendered only when
    /// `EXPLAIN` asks for it: `None` until a statement has run,
    /// `Some(None)` after an exact-match statement (no BMO stage).
    last_explain: Option<Option<Explain>>,
    closed: bool,
    /// Where this session's push frames go; `None` on transports that
    /// cannot carry asynchronous frames.
    sink: Option<WatchSink>,
    /// Watch ids this session registered, torn down on QUIT or drop.
    watches: Vec<u64>,
}

impl Session {
    /// Parse and run one request line. Protocol errors and SQL errors
    /// both come back as `ERR` replies; the connection stays usable.
    pub fn handle_line(&mut self, line: &str) -> Reply {
        match Command::parse(line) {
            Ok(cmd) => self.handle(cmd),
            Err(e) => Reply::err(e),
        }
    }

    /// Run one parsed command.
    pub fn handle(&mut self, cmd: Command) -> Reply {
        match cmd {
            Command::Exec(sql) => {
                let result = self.state.db.read().execute(&sql);
                self.reply_result(result)
            }
            Command::Prepare(name, sql) => match self.state.db.read().prepare(&sql) {
                Ok(stmt) => {
                    let params = stmt.param_count();
                    self.bindings.remove(&name);
                    self.statements.insert(name.clone(), stmt);
                    Reply::ok(format!("prepared {name} ({params} param(s))"))
                }
                Err(e) => Reply::err(e),
            },
            Command::Bind(name, values) => {
                if !self.statements.contains_key(&name) {
                    return Reply::err(format!("no prepared statement `{name}`"));
                }
                let n = values.len();
                self.bindings.insert(name.clone(), values);
                Reply::ok(format!("bound {name} ({n} value(s))"))
            }
            Command::Execute(name, inline) => {
                if !self.statements.contains_key(&name) {
                    return Reply::err(format!("no prepared statement `{name}`"));
                }
                // Inline values become the staged binding, so a
                // follow-up bare EXECUTE repeats them — the refinement
                // loop a shopping session runs.
                if let Some(values) = inline {
                    self.bindings.insert(name.clone(), values);
                }
                let params = self.bindings.get(&name).cloned().unwrap_or_default();
                let Some(stmt) = self.statements.get(&name) else {
                    return Reply::err(format!("no prepared statement `{name}`"));
                };
                let result = stmt.execute(&self.state.db.read(), &params);
                self.reply_result(result)
            }
            // `Explain::lines` is the one serialization: Display and
            // the wire EXPLAIN body both render through it (a parity
            // test pins this).
            Command::Explain => match &self.last_explain {
                Some(Some(ex)) => Reply::ok("explain").with_body(ex.lines()),
                Some(None) => Reply::ok("explain")
                    .with_body(vec!["exact-match statement (no BMO stage)".to_string()]),
                None => Reply::err("no statement has executed in this session yet"),
            },
            Command::Append(table, values) => {
                let mut db = self.state.db.write();
                match db.append_row(&table, values) {
                    Ok(()) => {
                        // Watch diffs run under this write guard so
                        // every watcher sees deltas in commit order.
                        self.state.hub.notify(&db);
                        Reply::ok(format!("appended to {table}"))
                    }
                    Err(e) => Reply::err(e),
                }
            }
            Command::Delete(sql) => {
                let mut db = self.state.db.write();
                match db.delete(&sql) {
                    Ok(n) => {
                        // A delete that removed nothing changed no answer.
                        if n > 0 {
                            self.state.hub.notify(&db);
                        }
                        Reply::ok(format!("deleted {n} row(s)"))
                    }
                    Err(e) => Reply::err(e),
                }
            }
            Command::Watch(sql) => {
                let Some(sink) = self.sink.clone() else {
                    return Reply::err(
                        "WATCH needs a push-capable connection (this transport has no sink)",
                    );
                };
                let db = self.state.db.read();
                // Prepared once here, executed with no parameters on
                // every commit: SQL with `$n` has nothing to bind and is
                // refused now.
                let watched = db
                    .prepare(&sql)
                    .and_then(|stmt| Ok((stmt.execute(&db, &[])?, stmt)));
                match watched {
                    Ok((res, stmt)) => {
                        let lines = tuple_lines(&res.relation);
                        // Registered while still holding the catalog
                        // read lock: no mutation can slip between this
                        // snapshot and the registration, so the first
                        // push is always a delta against the reply.
                        let id = self.state.hub.register(stmt, sink, lines.clone());
                        self.watches.push(id);
                        Reply::ok(format!("watching {id} ({} row(s))", lines.len()))
                            .with_body(lines)
                    }
                    Err(e) => Reply::err(e),
                }
            }
            Command::Unwatch(id) => {
                if let Some(pos) = self.watches.iter().position(|&w| w == id) {
                    self.watches.remove(pos);
                    self.state.hub.unregister(id);
                    Reply::ok(format!("unwatched {id}"))
                } else {
                    Reply::err(format!("no watch {id} in this session"))
                }
            }
            Command::Stats => {
                let s = self.state.engine.cache_stats();
                Reply::ok("stats").with_body(vec![s.wire_format()])
            }
            Command::Tables => {
                let db = self.state.db.read();
                let names: Vec<String> = db
                    .catalog()
                    .table_names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                Reply::ok(format!("{} table(s)", names.len())).with_body(names)
            }
            Command::Ping => Reply::ok("pong"),
            Command::Quit => {
                self.drop_watches();
                self.closed = true;
                Reply::ok("bye")
            }
        }
    }

    /// Has the client said QUIT?
    pub fn closed(&self) -> bool {
        self.closed
    }

    /// Unregister every watch this session holds (QUIT and drop both
    /// land here, so a vanished connection stops costing re-executions).
    fn drop_watches(&mut self) {
        for id in self.watches.drain(..) {
            self.state.hub.unregister(id);
        }
    }

    /// The shared state this session runs on.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Render a query result (or error) as a reply, keeping its report
    /// for the next `EXPLAIN` request. The body is the
    /// relation's own display — header plus one line per tuple — so
    /// replies are comparable byte-for-byte across sessions.
    fn reply_result(&mut self, result: Result<QueryResult, pref_sql::SqlError>) -> Reply {
        match result {
            Ok(res) => {
                let body: Vec<String> =
                    res.relation.to_string().lines().map(String::from).collect();
                self.last_explain = Some(res.explain);
                Reply::ok(format!("{} row(s)", res.relation.len())).with_body(body)
            }
            Err(e) => Reply::err(e),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.drop_watches();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_relation::rel;

    fn state() -> Arc<ServerState> {
        let mut db = PrefSql::new();
        db.register(
            "car",
            rel! {
                ("make": Str, "price": Int, "mileage": Int);
                ("Opel", 38_000, 20_000), ("BMW", 45_000, 10_000),
                ("Opel", 44_000, 60_000),
            },
        );
        ServerState::new(db)
    }

    #[test]
    fn exec_returns_relation_lines() {
        let mut s = state().session();
        let r = s.handle_line("EXEC SELECT * FROM car PREFERRING LOWEST(price)");
        assert_eq!(r.status, "OK 1 row(s)");
        assert_eq!(r.body.len(), 2, "schema header + one tuple: {:?}", r.body);
        assert!(r.body[1].contains("38000"));
    }

    #[test]
    fn prepare_bind_execute_lifecycle() {
        let mut s = state().session();
        assert!(s
            .handle_line(
                "PREPARE best SELECT * FROM car WHERE price <= $1 PREFERRING LOWEST(mileage)"
            )
            .is_ok());
        // EXECUTE with inline params stages them…
        let r = s.handle_line("EXECUTE best\t50000");
        assert_eq!(r.status, "OK 1 row(s)");
        assert!(r.body[1].contains("BMW"));
        // …so a bare EXECUTE repeats the binding.
        let again = s.handle_line("EXECUTE best");
        assert_eq!(again, r);
        // BIND replaces it.
        assert!(s.handle_line("BIND best\t40000").is_ok());
        let cheap = s.handle_line("EXECUTE best");
        assert_eq!(cheap.status, "OK 1 row(s)");
        assert!(cheap.body[1].contains("Opel"));
        // Handles are session-scoped.
        let mut other = s.state().session();
        assert!(!other.handle_line("EXECUTE best").is_ok());
    }

    #[test]
    fn explain_reports_last_execution() {
        let mut s = state().session();
        assert!(!s.handle_line("EXPLAIN").is_ok(), "nothing has run yet");
        let sql = "EXEC SELECT * FROM car PREFERRING price AROUND 40000 AND LOWEST(mileage)";
        s.handle_line(sql);
        s.handle_line(sql);
        let r = s.handle_line("EXPLAIN");
        assert!(r.is_ok());
        let cache_line = r
            .body
            .iter()
            .find(|l| l.starts_with("cache"))
            .expect("explain has a cache line");
        assert!(
            cache_line.contains("hit"),
            "second run is warm: {cache_line}"
        );
    }

    #[test]
    fn append_mutates_in_place_and_errors_surface() {
        let mut s = state().session();
        assert!(s.handle_line("APPEND car\t'VW'\t30000\t5000").is_ok());
        let r = s.handle_line("EXEC SELECT * FROM car PREFERRING LOWEST(price)");
        assert!(r.body[1].contains("VW"));
        assert!(!s.handle_line("APPEND nope\t1").is_ok());
        assert!(!s.handle_line("APPEND car\t'too'\t'few'").is_ok());
        assert!(!s.handle_line("EXEC SELECT * FROM nope").is_ok());
        assert!(!s.handle_line("NONSENSE").is_ok());
    }

    /// An in-memory sink: everything "sent" accumulates in a shared
    /// string, so watch delivery is testable with no socket at all.
    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<String>>);

    impl std::io::Write for Buf {
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

    /// Split captured bytes into frames (each ends with a lone `.`).
    fn split_frames(s: &str) -> Vec<String> {
        let mut frames = Vec::new();
        let mut cur = String::new();
        for line in s.lines() {
            if line == crate::protocol::END {
                frames.push(std::mem::take(&mut cur));
            } else {
                cur.push_str(line);
                cur.push('\n');
            }
        }
        frames
    }

    /// Poll until the dispatcher has delivered at least `n` frames.
    fn frames(buf: &Buf, n: usize) -> Vec<String> {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let got = split_frames(&buf.0.lock());
            if got.len() >= n {
                return got;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "dispatcher never delivered {n} frame(s); got {got:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    #[test]
    fn watch_pushes_deltas_on_mutations() {
        let state = state();
        let buf = Buf::default();
        let mut watcher = state.session_with_sink(WatchSink::new(buf.clone()));
        let r = watcher.handle_line("WATCH SELECT * FROM car PREFERRING LOWEST(price)");
        assert!(r.is_ok(), "{}", r.status);
        assert!(r.status.contains("watching 1"), "{}", r.status);
        assert_eq!(
            r.body.len(),
            1,
            "snapshot is the current BMO set: {:?}",
            r.body
        );
        assert!(r.body[0].contains("38000"));

        let mut other = state.session();
        // A dominated append (worse price) leaves the answer alone: no
        // push may fire — the maintained result absorbed it silently.
        assert!(other.handle_line("APPEND car\t'Audi'\t50000\t1000").is_ok());
        // A dominating append changes the champion: one push frame
        // with the old row retracted and the new one asserted.
        assert!(other.handle_line("APPEND car\t'VW'\t30000\t5000").is_ok());
        let fs = frames(&buf, 1);
        assert_eq!(fs.len(), 1, "dominated append must not push: {fs:?}");
        assert!(fs[0].starts_with("PUSH 1 2 delta(s)\n"), "{}", fs[0]);
        let deltas: Vec<&str> = fs[0].lines().skip(1).collect();
        assert!(
            deltas[0].starts_with('-') && deltas[0].contains("38000"),
            "{deltas:?}"
        );
        assert!(
            deltas[1].starts_with('+') && deltas[1].contains("VW"),
            "{deltas:?}"
        );

        // Deleting the champion re-promotes the runner-up: push again.
        assert!(other
            .handle_line("DELETE FROM car WHERE make = 'VW'")
            .is_ok());
        let fs = frames(&buf, 2);
        assert!(fs[1].contains("-") && fs[1].contains("VW"), "{}", fs[1]);
        assert!(fs[1].contains("+") && fs[1].contains("38000"), "{}", fs[1]);

        // UNWATCH stops the stream; a second UNWATCH is an error.
        assert!(watcher.handle_line("UNWATCH 1").is_ok());
        assert!(!watcher.handle_line("UNWATCH 1").is_ok());
        assert!(other.handle_line("APPEND car\t'Fiat'\t20000\t100").is_ok());
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(
            split_frames(&buf.0.lock()).len(),
            2,
            "unwatched sessions get no pushes"
        );
    }

    #[test]
    fn a_delete_that_matches_nothing_reruns_no_watch() {
        let state = state();
        let buf = Buf::default();
        let mut watcher = state.session_with_sink(WatchSink::new(buf.clone()));
        assert!(watcher
            .handle_line("WATCH SELECT * FROM car PREFERRING LOWEST(price)")
            .is_ok());
        let before = state.engine().cache_stats();
        let mut other = state.session();
        let r = other.handle_line("DELETE FROM car WHERE price = 1");
        assert_eq!(r.status, "OK deleted 0 row(s)");
        // A re-run watch would have been an exact result-tier hit.
        let after = state.engine().cache_stats();
        assert_eq!((after.hits, after.misses), (before.hits, before.misses));
        // Deleting the champion still re-runs the watch: one push, and
        // it is the first frame the sink sees.
        assert!(other
            .handle_line("DELETE FROM car WHERE price = 38000")
            .is_ok());
        let fs = frames(&buf, 1);
        assert!(fs[0].starts_with("PUSH 1 2 delta(s)\n"), "{}", fs[0]);
        assert!(fs[0].contains("-") && fs[0].contains("38000"), "{}", fs[0]);
    }

    #[test]
    fn watch_needs_a_sink_and_dropped_sessions_unregister() {
        let state = state();
        let mut plain = state.session();
        assert!(
            !plain.handle_line("WATCH SELECT * FROM car").is_ok(),
            "sink-less transports cannot WATCH"
        );

        let buf = Buf::default();
        {
            let mut w = state.session_with_sink(WatchSink::new(buf.clone()));
            assert!(w
                .handle_line("WATCH SELECT * FROM car PREFERRING LOWEST(price)")
                .is_ok());
        } // dropped without QUIT — e.g. a vanished TCP connection
        assert!(plain.handle_line("APPEND car\t'VW'\t30000\t5000").is_ok());
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(
            split_frames(&buf.0.lock()).len(),
            0,
            "watches die with their session"
        );
    }

    #[test]
    fn a_watch_with_placeholders_is_refused_at_registration() {
        let state = state();
        let buf = Buf::default();
        let mut w = state.session_with_sink(WatchSink::new(buf.clone()));
        let r = w.handle_line("WATCH SELECT * FROM car PREFERRING price AROUND $1");
        assert!(r.status.starts_with("ERR "), "{}", r.status);
        assert!(state
            .session()
            .handle_line("APPEND car\t'VW'\t30000\t5000")
            .is_ok());
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(split_frames(&buf.0.lock()).len(), 0, "nothing registered");
    }

    #[test]
    fn delete_verb_mutates_and_errors_surface() {
        let state = state();
        let mut s = state.session();
        let r = s.handle_line("DELETE FROM car WHERE mileage >= 60000");
        assert_eq!(r.status, "OK deleted 1 row(s)");
        let left = s.handle_line("EXEC SELECT * FROM car");
        assert_eq!(left.status, "OK 2 row(s)");
        assert!(!s.handle_line("DELETE FROM nope").is_ok());
        assert!(
            !s.handle_line("DELETE car").is_ok(),
            "missing FROM is a parse error"
        );
    }

    #[test]
    fn explain_body_and_display_are_one_serialization() {
        let state = state();
        let sql = "SELECT * FROM car PREFERRING price AROUND 40000 AND LOWEST(mileage)";
        // Parity at the source: Display renders through lines().
        let res = state.db().read().execute(sql).expect("executes");
        let ex = res.explain.expect("BMO stage ran");
        assert_eq!(ex.lines().join("\n"), ex.to_string());
        // And the wire body is those same lines, verbatim.
        let mut s = state.session();
        s.handle_line(&format!("EXEC {sql}"));
        let wire = s.handle_line("EXPLAIN").body;
        let again = state.db().read().execute(sql).expect("executes");
        assert_eq!(wire, again.explain.expect("BMO stage ran").lines());
    }

    #[test]
    fn stats_and_tables_and_quit() {
        let mut s = state().session();
        let sql = "EXEC SELECT * FROM car PREFERRING price AROUND 40000 AND LOWEST(mileage)";
        s.handle_line(sql);
        s.handle_line(sql);
        let stats = s.handle_line("STATS");
        assert!(stats.body[0].contains("hits=1"), "{:?}", stats.body);
        assert!(stats.body[0].contains("misses=1"));
        let tables = s.handle_line("TABLES");
        assert_eq!(tables.body, vec!["car".to_string()]);
        assert!(s.handle_line("PING").is_ok());
        assert!(!s.closed());
        assert!(s.handle_line("QUIT").is_ok());
        assert!(s.closed());
    }
}
