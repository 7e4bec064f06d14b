//! The traced replay of the three protocol workloads: a run of request
//! lines, single-threaded and in process, each **decomposed by hand**.
//!
//! No layer is instrumented, so a request is measured by giving it to
//! several *twin* states that have seen exactly the same history, each
//! entered one layer further in:
//!
//! | twin | entered through | spans |
//! |---|---|---|
//! | T | `Client::request` over loopback TCP | `server.roundtrip` |
//! | S | `Session::handle_line` | `protocol.parse`, `session.handle`, `protocol.frame` |
//! | E | `PrefSql::{execute, append_row, delete}`, `PreparedStatement::execute` | `executor.*` |
//! | G | the calls `PrefSql::execute` makes, one by one | `executor.decomposed` and its children: `parser.parse`, `rewrite.bind`, `relation.select`, `engine.prepare`, `plan.plan`, `plan.cached`, `engine.execute`, `relation.materialize` |
//! | U | `Session::handle_line`, nothing recorded | — (the untraced side of `harness.trace_overhead_pct`) |
//! | S0 | `Session::handle_line`, mutations only, no watch registered | `session.handle_plain` |
//!
//! A layer that cannot be called alone gets a self time: the whole call
//! on one twin minus the inner calls on the next (`server.wire_ns` =
//! T − S, `session.self_ns` = S − E, `executor.self_ns` = E − the
//! parser, rewrite, engine and plan calls of G — what is left is the
//! WHERE scan and materialisation). All four replies must be byte-equal.

use std::borrow::Cow;
use std::collections::HashMap;
use std::time::Instant;

use pref_query::{Algorithm, CacheStats, CacheStatus, Prepared};
use pref_relation::{Relation, Tuple};
use pref_server::{Client, Command, Reply, ServerState, Session, WatchSink};
use pref_sql::ast::{SelectList, Statement};
use pref_sql::executor::QueryResult;
use pref_sql::rewrite::{hard_to_predicate, pref_to_term};
use pref_sql::{parse_statement, PrefSql, PreparedStatement};

use crate::harness::{self, relation_reply};
use crate::layers::{self, set_median, Below};
use crate::report::Metrics;
use crate::stats;
use crate::trace::Tracer;

/// Share of `--seconds` a traced run spends on its untraced load phase
/// (generator, cache-tier and tail numbers); the replay is count-based.
pub const LOAD_SHARE: f64 = 0.4;

/// Requests replayed decomposed: the run right after the warm-up, in
/// stream order, so the cache state evolves as it does under load.
pub const SAMPLE: usize = 200;

/// At most this many cold requests get every skyline algorithm run on
/// their candidates (generic BNL over 20 k rows is the slow part).
const ALGORITHM_PROBES: usize = 10;
/// At most this many requests get the storage probes (scan, column
/// statistics, and what one appended row costs each layer).
const STORAGE_PROBES: usize = 10;

/// What a traced replay needs to know about its workload.
pub struct Script<'a> {
    pub workload: &'a str,
    pub catalog: &'a dyn Fn() -> Relation,
    /// Session-scoped set-up lines (`PREPARE …`).
    pub prepare: &'a [String],
    /// Statements under `WATCH` while the sample runs.
    pub watches: &'a [String],
    /// Untimed warm-up lines, then the traced sample.
    pub warm: &'a [String],
    pub lines: &'a [String],
}

/// `engine.warm_share` and the resident counts from the cache counters
/// around an untraced load phase (every execution, watches included).
pub fn cache_counters(metrics: &mut Metrics, before: &CacheStats, after: &CacheStats) {
    let warm = (after.hits - before.hits) + (after.maintained_hits - before.maintained_hits);
    let all = warm + (after.shard_hits - before.shard_hits) + (after.misses - before.misses);
    if all > 0 {
        metrics.set("engine.warm_share", warm as f64 / all as f64, all as usize);
    }
    metrics.set("engine.resident_matrices", after.entries as f64, 1);
    metrics.set("engine.resident_results", after.result_entries as f64, 1);
}

/// A session-less twin: a database, its prepared statements, and the
/// watched statements it re-executes after each mutation — what
/// `WatchHub::notify` does under the server's write guard.
struct Db<'a> {
    db: PrefSql,
    statements: HashMap<String, PreparedStatement>,
    watches: &'a [String],
    /// Re-execute the watches inside `apply` (off while the caller
    /// decomposes those re-executions itself).
    notifies: bool,
}

impl<'a> Db<'a> {
    fn new(script: &Script<'a>) -> Db<'a> {
        let mut db = PrefSql::new();
        db.register("car", (script.catalog)());
        let mut twin = Db {
            db,
            statements: HashMap::new(),
            watches: script.watches,
            notifies: true,
        };
        for line in script.prepare.iter().chain(script.warm) {
            twin.apply(line).expect("set-up lines execute");
        }
        twin
    }

    fn notify(&self) {
        for sql in self.watches {
            let _ = self.db.execute(sql);
        }
    }

    /// Run one request line; the reply the server would frame and, for
    /// a query, `(candidate rows after WHERE, result rows)`.
    fn apply(&mut self, line: &str) -> Result<(Reply, Option<(usize, usize)>), String> {
        let reply = match Command::parse(line)? {
            Command::Exec(sql) => return Ok(query_reply(self.db.execute(&sql))),
            Command::Prepare(name, sql) => {
                let stmt = self.db.prepare(&sql).map_err(|e| e.to_string())?;
                let reply = Reply::ok(format!("prepared {name} ({} param(s))", stmt.param_count()));
                self.statements.insert(name, stmt);
                reply
            }
            Command::Execute(name, values) => {
                let stmt = self.statements.get(&name).ok_or("unknown statement")?;
                return Ok(query_reply(
                    stmt.execute(&self.db, &values.unwrap_or_default()),
                ));
            }
            Command::Append(table, values) => {
                let done = self.db.append_row(&table, values);
                if self.notifies {
                    self.notify();
                }
                done.map_err(|e| e.to_string())?;
                Reply::ok(format!("appended to {table}"))
            }
            Command::Delete(sql) => {
                let done = self.db.delete(&sql);
                if self.notifies {
                    self.notify();
                }
                Reply::ok(format!(
                    "deleted {} row(s)",
                    done.map_err(|e| e.to_string())?
                ))
            }
            other => return Err(format!("the traced replay does not handle {other:?}")),
        };
        Ok((reply, None))
    }
}

/// The reply `Session::reply_result` renders for a query result, and
/// the result's `(candidates, rows)`.
fn query_reply(result: Result<QueryResult, pref_sql::SqlError>) -> (Reply, Option<(usize, usize)>) {
    match result {
        Ok(res) => (
            relation_reply(&res.relation),
            Some((res.candidates, res.relation.len())),
        ),
        Err(e) => (Reply::err(e), None),
    }
}

/// A session-bearing twin, prepared, watching and warmed.
fn session_twin(script: &Script<'_>, watch: bool) -> Session {
    let mut db = PrefSql::new();
    db.register("car", (script.catalog)());
    let state = ServerState::new(db);
    let mut session = state.session_with_sink(WatchSink::new(std::io::sink()));
    let watches = script.watches.iter().map(|sql| format!("WATCH {sql}"));
    let watches = watches.filter(|_| watch);
    for line in script.prepare.iter().cloned().chain(watches) {
        assert!(
            session.handle_line(&line).is_ok(),
            "set-up line failed: {line}"
        );
    }
    for line in script.warm {
        assert!(
            session.handle_line(line).is_ok(),
            "warm-up line failed: {line}"
        );
    }
    session
}

/// What the decomposed calls on the G twin add up to, over the sample.
#[derive(Default)]
struct Probes {
    below: Below,
    algorithms_left: usize,
    storage_left: usize,
    /// `Prepared::execute`: the tier that served it, and its time.
    executions: Vec<(CacheStatus, u64)>,
    chosen: Vec<Algorithm>,
    est_ratio: Vec<f64>,
    failures: Vec<String>,
}

/// `PrefSql::execute(sql)` call by call on the G twin: the reply it
/// amounts to, and the time of parser + rewrite + engine + plan —
/// everything of the executor's call that is not its own scan and
/// materialisation. `None` for a statement shape the hand decomposition
/// does not cover.
fn decompose(
    g: &Db<'_>,
    sql: &str,
    tracer: &mut Tracer,
    root: usize,
    probes: &mut Probes,
) -> Option<(Reply, u64)> {
    let request_id = tracer.spans[root].request_id;
    let whole = tracer.open("executor.decomposed", Some(root), request_id);
    let done = decompose_in(g, sql, tracer, whole, probes);
    tracer.close(whole);
    let (reply, inner_ns, prepared, base) = done?;

    // Below the engine, alone, on this request's term and candidates.
    let (status, _) = *probes.executions.last().expect("decompose_in recorded it");
    let layers = tracer.open("layers", Some(root), request_id);
    if let Some((compiled, matrix, build_ns)) =
        probes.below.eval(tracer, layers, prepared.term(), &base)
    {
        if status == CacheStatus::Miss && probes.algorithms_left > 0 {
            probes.algorithms_left -= 1;
            let (via_matrix, via_generic) = probes
                .below
                .algorithms(tracer, layers, &compiled, &matrix, build_ns, &base);
            // All three must name the same rows (the reply lists the
            // engine's, rendered; order is not part of the claim).
            let rows = |frame: String| {
                let mut lines: Vec<String> = frame.lines().map(String::from).collect();
                lines.sort_unstable();
                lines
            };
            let expected = rows(reply.frame());
            for (what, indices) in [("bnl_matrix", via_matrix), ("bnl_generic", via_generic)] {
                if rows(relation_reply(&base.take_rows(&indices)).frame()) != expected {
                    probes
                        .failures
                        .push(format!("oracle mismatch ({what}): {sql}"));
                }
            }
        }
        if probes.storage_left > 0 && !base.is_empty() {
            probes.storage_left -= 1;
            let first_value = base.row(0)[0].clone();
            let keep = move |t: &Tuple| t[0] == first_value;
            probes
                .below
                .storage(tracer, layers, &base, keep, Some((&compiled, &matrix)));
        }
    }
    tracer.close(layers);
    Some((reply, inner_ns))
}

/// The children of one `executor.decomposed` span.
fn decompose_in<'g>(
    g: &'g Db<'_>,
    sql: &str,
    tracer: &mut Tracer,
    whole: usize,
    probes: &mut Probes,
) -> Option<(Reply, u64, Prepared, Cow<'g, Relation>)> {
    let (parsed, parse_ns) = tracer.child("parser.parse", whole, || parse_statement(sql));
    let Ok(Statement::Query(q)) = parsed else {
        return None;
    };
    let plain = q.select == SelectList::Star
        && !q.explain
        && q.cascade.is_empty()
        && q.group_by.is_empty()
        && q.but_only.is_empty()
        && q.limit.is_none()
        && q.top.is_none();
    let table = g.db.catalog().get(&q.table).ok().filter(|_| plain)?;
    let pref_expr = q.preferring.as_ref()?;
    let (bound, bind_ns) = tracer.child("rewrite.bind", whole, || {
        let term = pref_to_term(pref_expr, table.schema(), &q.table);
        let hard = q
            .hard
            .as_ref()
            .map(|h| hard_to_predicate(h, table.schema(), &q.table).map(|p| (h.fingerprint(), p)));
        (term, hard.transpose())
    });
    let (Ok(term), Ok(hard)) = bound else {
        return None;
    };
    let base: Cow<'_, Relation> = match &hard {
        Some((fp, pred)) => {
            let (view, _) = tracer.child("relation.select", whole, || {
                table.select_derived(|t| pred(t), *fp)
            });
            Cow::Owned(view)
        }
        None => Cow::Borrowed(table),
    };
    let (prepared, prepare_ns) = tracer.child("engine.prepare", whole, || {
        g.db.engine().prepare(&term, base.schema())
    });
    let prepared = prepared.ok()?;
    let (plan, plan_ns) = tracer.child("plan.plan", whole, || prepared.plan(&base));
    tracer.child("plan.cached", whole, || prepared.plan(&base));
    let (result, engine_ns) = tracer.child("engine.execute", whole, || prepared.execute(&base));
    let result = result.ok()?;
    let (rows, _) = tracer.child("relation.materialize", whole, || {
        base.take_rows(result.rows())
    });
    probes.executions.push((result.cache(), engine_ns));
    probes.chosen.push(result.explain().algorithm);
    probes
        .est_ratio
        .push(plan.estimated_result / result.rows().len().max(1) as f64);
    let inner_ns = parse_ns + bind_ns + prepare_ns + plan_ns + engine_ns;
    Some((relation_reply(&rows), inner_ns, prepared, base))
}

/// Replay `script.lines` on the twins and record every per-layer metric
/// the protocol path has. Returns the failures found (twin replies that
/// differ, oracle mismatches, lines that errored).
pub fn replay(script: &Script<'_>, metrics: &mut Metrics) -> Vec<String> {
    let server = harness::serve((script.catalog)());
    let mut t = Client::connect(server.local_addr()).expect("connect to own server");
    let mut watcher = Client::connect(server.local_addr()).expect("connect to own server");
    for sql in script.watches {
        let reply = watcher.request(&format!("WATCH {sql}"));
        assert!(reply.is_ok_and(|r| r.is_ok()), "WATCH failed: {sql}");
    }
    for line in script.prepare.iter().chain(script.warm) {
        let reply = t.request(line);
        assert!(reply.is_ok_and(|r| r.is_ok()), "set-up line failed: {line}");
    }
    let mut s = session_twin(script, true);
    let mut u = session_twin(script, true);
    let mut s0 = (!script.watches.is_empty()).then(|| session_twin(script, false));
    let mut e = Db::new(script);
    let mut g = Db::new(script);

    // G's watch re-evaluations are decomposed by the loop below.
    g.notifies = false;

    let mut tracer = Tracer::new();
    let mut probes = Probes {
        algorithms_left: ALGORITHM_PROBES,
        storage_left: STORAGE_PROBES,
        ..Probes::default()
    };
    let mut failures: Vec<String> = Vec::new();

    let mut wire = Vec::new();
    let mut session_self = Vec::new();
    let mut executor_self = Vec::new();
    let mut clamped = 0usize;
    let (mut appends, mut appends_plain, mut deletes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sql_bytes, mut frame_bytes) = (Vec::new(), Vec::new());
    let (mut candidates, mut result_rows) = (Vec::new(), Vec::new());

    // The untraced side first: same lines, nothing recorded.
    let start = Instant::now();
    for line in script.lines {
        std::hint::black_box(u.handle_line(line));
    }
    let untraced_ns = start.elapsed().as_nanos() as u64;

    for (id, line) in script.lines.iter().enumerate() {
        let root = tracer.open("request", None, id as u64);
        let (over_tcp, rtt_ns) = tracer.child("server.roundtrip", root, || t.request(line));
        let (command, _) = tracer.child("protocol.parse", root, || Command::parse(line));
        let (in_session, handle_ns) = tracer.child("session.handle", root, || s.handle_line(line));
        let (frame, _) = tracer.child("protocol.frame", root, || in_session.frame());
        wire.push(rtt_ns.saturating_sub(handle_ns));
        clamped += usize::from(rtt_ns < handle_ns);
        frame_bytes.push(frame.len() as u64);

        let Ok(command) = command else {
            failures.push(format!("unparseable request: {line}"));
            tracer.close(root);
            continue;
        };
        let executor_span = match &command {
            Command::Append(..) => "executor.append",
            Command::Delete(_) => "executor.delete",
            Command::Execute(..) => "executor.prepared_execute",
            _ => "executor.execute",
        };
        let (direct, executor_ns) = tracer.child(executor_span, root, || e.apply(line));
        session_self.push(handle_ns.saturating_sub(executor_ns));
        clamped += usize::from(handle_ns < executor_ns);

        let mut decomposed_reply = None;
        match &command {
            Command::Exec(sql) => {
                sql_bytes.push(sql.len() as u64);
                if let Some((reply, inner_ns)) = decompose(&g, sql, &mut tracer, root, &mut probes)
                {
                    executor_self.push(executor_ns.saturating_sub(inner_ns));
                    clamped += usize::from(executor_ns < inner_ns);
                    decomposed_reply = Some(reply);
                } else {
                    failures.push(format!("not decomposable: {sql}"));
                }
            }
            Command::Append(..) | Command::Delete(_) => {
                let plain = s0.as_mut().expect("mutations come with watches");
                let (_, plain_ns) =
                    tracer.child("session.handle_plain", root, || plain.handle_line(line));
                if matches!(command, Command::Append(..)) {
                    appends.push(handle_ns);
                    appends_plain.push(plain_ns);
                } else {
                    deletes.push(handle_ns);
                }
            }
            _ => {}
        }
        // G keeps pace on the lines it did not decompose (a decomposed
        // query already ran on its engine); after a mutation it
        // re-evaluates the watches as the server's commit path does —
        // decomposed, which is where the maintained tier shows.
        if decomposed_reply.is_none() && g.apply(line).is_err() {
            failures.push(format!("twin G failed: {line}"));
        }
        if matches!(command, Command::Append(..) | Command::Delete(_)) {
            for sql in script.watches {
                if decompose(&g, sql, &mut tracer, root, &mut probes).is_none() {
                    failures.push(format!("watch not decomposable: {sql}"));
                }
            }
        }
        tracer.close(root);

        // Outputs: every twin that answered must have framed the same
        // bytes (query bodies deliberately carry no cache status).
        let observed = match over_tcp {
            Ok(reply) => reply.frame(),
            Err(err) => format!("transport: {err}"),
        };
        if let Ok((_, Some((examined, returned)))) = &direct {
            candidates.push(*examined as f64);
            result_rows.push(*returned as f64);
        }
        let direct = direct.map(|(r, _)| r.frame()).unwrap_or_else(|err| err);
        let decomposed = decomposed_reply.map_or_else(|| frame.clone(), |r| r.frame());
        if !in_session.is_ok() {
            failures.push(format!("{line} -> {}", in_session.status));
        } else if observed != frame || direct != frame || decomposed != frame {
            failures.push(format!("twin replies differ: {line}"));
        }
    }
    let traced_ns: u64 = tracer.durations("session.handle").iter().sum();

    let n = script.lines.len();
    set_median(
        metrics,
        "protocol.parse_ns",
        &tracer.durations("protocol.parse"),
    );
    set_median(
        metrics,
        "protocol.frame_ns",
        &tracer.durations("protocol.frame"),
    );
    set_median(metrics, "protocol.frame_bytes", &frame_bytes);
    set_median(metrics, "server.wire_ns", &wire);
    set_median(
        metrics,
        "session.handle_ns",
        &tracer.durations("session.handle"),
    );
    set_median(metrics, "session.self_ns", &session_self);
    set_median(metrics, "session.append_ns", &appends);
    set_median(metrics, "session.delete_ns", &deletes);
    if !appends.is_empty() {
        let med = |v: &[u64]| stats::median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>());
        let watch_eval = (med(&appends) - med(&appends_plain)).max(0.0);
        metrics.set("session.watch_eval_ns", watch_eval, appends.len());
    }
    set_median(
        metrics,
        "parser.parse_ns",
        &tracer.durations("parser.parse"),
    );
    set_median(metrics, "parser.sql_bytes", &sql_bytes);
    set_median(
        metrics,
        "rewrite.bind_ns",
        &tracer.durations("rewrite.bind"),
    );
    set_median(
        metrics,
        "executor.execute_ns",
        &tracer.durations("executor.execute"),
    );
    set_median(metrics, "executor.self_ns", &executor_self);
    set_median(
        metrics,
        "executor.prepared_execute_ns",
        &tracer.durations("executor.prepared_execute"),
    );
    set_median(
        metrics,
        "executor.append_ns",
        &tracer.durations("executor.append"),
    );
    set_median(
        metrics,
        "executor.delete_ns",
        &tracer.durations("executor.delete"),
    );
    if !result_rows.is_empty() {
        metrics.set(
            "executor.candidates",
            stats::median(&candidates),
            candidates.len(),
        );
        metrics.set(
            "executor.result_rows",
            stats::median(&result_rows),
            result_rows.len(),
        );
        let examined: f64 = candidates.iter().sum();
        let returned: f64 = result_rows.iter().sum();
        metrics.set(
            "executor.rows_examined_per_result",
            examined / returned.max(1.0),
            result_rows.len(),
        );
    }
    set_median(
        metrics,
        "engine.prepare_ns",
        &tracer.durations("engine.prepare"),
    );
    set_median(metrics, "plan.plan_ns", &tracer.durations("plan.plan"));
    set_median(metrics, "plan.cached_ns", &tracer.durations("plan.cached"));
    layers::by_status(metrics, &probes.executions);
    layers::chosen_counts(metrics, &probes.chosen);
    if !probes.est_ratio.is_empty() {
        let ratios = &probes.est_ratio;
        metrics.set("plan.est_result_ratio", stats::median(ratios), ratios.len());
    }
    probes.below.report(metrics);
    failures.append(&mut probes.failures);
    metrics.set("trace.negative_self_times", clamped as f64, 3 * n);
    metrics.set(
        "harness.trace_overhead_pct",
        (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64 * 100.0,
        n,
    );
    layers::finish(metrics, &tracer, script.workload, n);

    let _ = t.request("QUIT");
    let _ = watcher.request("QUIT");
    drop((t, watcher));
    server.shutdown();
    failures
}
