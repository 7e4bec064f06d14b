//! `mutate-watch`: writes beside reads, over TCP.
//!
//! Connection W holds four `WATCH`es (the standing queries) and only
//! reads `PUSH` frames. Connection M runs a closed loop of steps: one
//! `APPEND`, two queries (a replay of a standing query by `EXEC` or
//! `EXECUTE`, or the `PREPARE`d parameterized statement with a cycling,
//! unwatched `$1`), and every tenth step two `DELETE`s — one matching nothing, one removing rows appended ten
//! steps earlier, watched-answer members among them. Here the engine's
//! result and matrix caches are *maintained and invalidated* under the
//! catalog write lock, with watch re-evaluation on the commit path —
//! the cost a cache that only helps replays would hide.

use std::collections::HashMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pref_relation::{Relation, Value};
use pref_server::{Client, Reply, Server};
use pref_sql::PrefSql;
use pref_workload::cars;

use crate::harness::{self, Config};
use crate::layers;
use crate::load;
use crate::report::{self, Fnv, Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::sql_trace::{self, Script};
use crate::stats::{self, ms, percentile};

/// `commission` of appended row `k` is `MARKER_BASE + k`: unique, and
/// far above any generated commission, so a pushed row names its append.
const MARKER_BASE: i64 = 1_000_000;
/// The last row of a run, and the row after it that only tells W to
/// stop: frames are dispatched in commit order, so once W reads a frame
/// naming `STOP`, every frame up to and including `LAST`'s commit has
/// arrived. (A commit pushes one frame per changed watch, so `LAST`
/// itself cannot end the stream: its other frames may still follow.)
const LAST: i64 = MARKER_BASE - 1;
const STOP: i64 = MARKER_BASE - 2;
const COMMISSION: usize = 8;
const PRICE: usize = 4;
const HORSEPOWER: usize = 5;
const MILEAGE: usize = 6;

/// The five `$1` bindings of the parameterized statement. Like the
/// standing queries they are fixed: `--seed` draws the catalog and the
/// appended rows, not the query set.
const AROUND: [i64; 5] = [9_000, 12_000, 15_000, 18_000, 21_000];

/// The seeded request generator: what step `k` sends is a pure function
/// of `k`, so the live loop, the reference replay and the traced replay
/// all see the same lines.
struct Requests {
    donor: Relation,
    /// The four standing queries, as watched.
    standing: [String; 4],
    /// Session set-up on M: the two prepared statements.
    prepare: Vec<String>,
}

impl Requests {
    fn new(cfg: &Config) -> Requests {
        let pareto3 = "SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(mileage) \
                       AND HIGHEST(horsepower)";
        let around_sql = |v: &str| {
            format!(
                "SELECT * FROM car WHERE make = 'BMW' \
                 PREFERRING price AROUND {v} AND LOWEST(mileage)"
            )
        };
        Requests {
            donor: cars::catalog(donor_rows(cfg), cfg.seed ^ 0xd0_d0),
            standing: [
                "SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)".to_string(),
                pareto3.to_string(),
                around_sql(&AROUND[0].to_string()),
                "SELECT * FROM car PREFERRING transmission = 'automatic' \
                 PRIOR TO (LOWEST(price) AND HIGHEST(year))"
                    .to_string(),
            ],
            prepare: vec![
                format!("PREPARE p3 {pareto3}"),
                format!("PREPARE around {}", around_sql("$1")),
            ],
        }
    }

    /// `APPEND` of donor row `k` under `marker`. A *cut* row has price
    /// and mileage halved and more horsepower than any row before it,
    /// so no row dominates it on the 3-d watch: it enters that answer.
    fn append(&self, k: usize, marker: i64, cut: bool) -> String {
        let mut row: Vec<Value> = self.donor.row(k % self.donor.len()).values().to_vec();
        row[COMMISSION] = Value::from(marker);
        if cut {
            let halve = |v: &Value| Value::from(v.as_f64().unwrap_or(0.0) as i64 / 2);
            row[PRICE] = halve(&row[PRICE]);
            row[MILEAGE] = halve(&row[MILEAGE]);
            row[HORSEPOWER] = Value::from(400 + k as i64);
        }
        let values: Vec<String> = row.iter().map(Value::to_string).collect();
        format!("APPEND car\t{}", values.join("\t"))
    }

    /// Query number `j`. Every fourth replays one of the standing
    /// queries, round-robin (two by `EXEC`, two by `EXECUTE`): the watch
    /// re-evaluation on the commit path has already maintained their
    /// answers, so these are exact replays — a 0.2 ms round trip that
    /// measures thread wake-ups, which on this virtual machine drift by
    /// 2× within minutes. The others run the parameterized statement
    /// with a binding nobody watches, cycling over four values: the
    /// mutation invalidated what the engine held for it, so they scan,
    /// build and winnow again. Three in four, so that the median query
    /// is one of those and not on the edge between the two kinds.
    fn query(&self, j: usize) -> String {
        if !j.is_multiple_of(4) {
            return format!("EXECUTE around\t{}", AROUND[1 + (j - j / 4) % 4]);
        }
        match (j / 4) % 4 {
            0 => format!("EXEC {}", self.standing[0]),
            1 => "EXECUTE p3".to_string(),
            2 => format!("EXECUTE around\t{}", AROUND[0]),
            _ => format!("EXEC {}", self.standing[3]),
        }
    }

    /// Everything step `k` sends, in order.
    fn step(&self, k: usize) -> Vec<String> {
        let marker = MARKER_BASE + k as i64;
        let mut lines = vec![
            self.append(k, marker, k.is_multiple_of(3)),
            self.query(2 * k),
            self.query(2 * k + 1),
        ];
        if k % 10 == 9 {
            lines.push("DELETE FROM car WHERE commission = 1".to_string());
            lines.push(format!(
                "DELETE FROM car WHERE commission >= {} AND commission < {}",
                marker - 19,
                marker - 9
            ));
        }
        lines
    }
}

fn donor_rows(cfg: &Config) -> usize {
    (cfg.seconds * 600.0).ceil() as usize + 64
}

/// Untimed warm-up steps: about a tenth of what a run completes.
fn warm_steps(cfg: &Config) -> usize {
    (cfg.seconds * 8.0).ceil() as usize + 2
}

fn is_mutation(line: &str) -> bool {
    line.starts_with("APPEND") || line.starts_with("DELETE")
}

/// The marker of a pushed `+` line, if it is one of this run's appends.
fn marker_of(delta: &str) -> Option<i64> {
    let tuple = delta.strip_prefix('+')?.trim();
    let inner = tuple.strip_prefix('(')?.strip_suffix(')')?;
    let marker: i64 = inner.split(", ").nth(COMMISSION)?.parse().ok()?;
    (marker >= STOP).then_some(marker)
}

/// One push as W saw it: fully read at `at_ns`.
struct Push {
    at_ns: u64,
    frame: Reply,
}

struct Env {
    server: Server,
    script: Requests,
    m: Client,
    /// W's reader; returns every push before the one naming `STOP`.
    w: Option<JoinHandle<Result<Vec<Push>, String>>>,
    /// Watch id → the answer the `WATCH` reply carried.
    snapshots: Vec<(u64, Vec<String>)>,
    origin: Instant,
    /// Every mutation M sent, in commit order, for the reference.
    log: Vec<String>,
    /// When `APPEND` of step `k` was sent.
    sent_ns: HashMap<i64, u64>,
    next_step: usize,
    failures: Vec<String>,
    requests: u64,
}

/// One request of M as recorded in the measured phase.
struct Op {
    done_ns: u64,
    lat_ns: u64,
    mutation: bool,
}

impl Op {
    fn start_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.lat_ns)
    }
}

impl Env {
    /// Send one line on M; `Some(latency)` when the reply is `OK`.
    fn send(&mut self, line: &str) -> Option<u64> {
        let start = Instant::now();
        let reply = self.m.request(line);
        let ns = start.elapsed().as_nanos() as u64;
        self.requests += 1;
        if is_mutation(line) {
            self.log.push(line.to_string());
        }
        match reply {
            Ok(r) if r.is_ok() => Some(ns),
            Ok(r) => {
                self.failures.push(format!("{line} -> {}", r.status));
                None
            }
            Err(e) => {
                self.failures.push(format!("{line} -> transport: {e}"));
                None
            }
        }
    }

    fn run_step(&mut self, phase_start: Option<Instant>, ops: &mut Vec<Op>) {
        let k = self.next_step;
        self.next_step += 1;
        for line in self.script.step(k) {
            if line.starts_with("APPEND") {
                let now = self.origin.elapsed().as_nanos() as u64;
                self.sent_ns.insert(MARKER_BASE + k as i64, now);
            }
            let lat = self.send(&line);
            if let (Some(start), Some(lat_ns)) = (phase_start, lat) {
                ops.push(Op {
                    done_ns: start.elapsed().as_nanos() as u64,
                    lat_ns,
                    mutation: is_mutation(&line),
                });
            }
        }
    }

    /// End the run: the last append, the standing queries' final
    /// answers as M reads them, then `STOP` and W's pushes.
    fn finish(&mut self) -> (Vec<Push>, Vec<String>) {
        let last = self.script.append(self.next_step, LAST, true);
        self.send(&last);
        let finals = self
            .script
            .standing
            .iter()
            .map(|sql| match self.m.request(&format!("EXEC {sql}")) {
                Ok(reply) => reply.frame(),
                Err(e) => format!("transport: {e}"),
            })
            .collect();
        // Not logged: the reference stops at `LAST`.
        let stop = self.script.append(self.next_step + 1, STOP, true);
        if let Err(e) = self.m.request(&stop) {
            self.failures.push(format!("STOP append -> transport: {e}"));
        }
        let w = self.w.take().expect("a run is finished once");
        let pushes = w.join().expect("W reader panicked").unwrap_or_else(|e| {
            self.failures.push(e);
            Vec::new()
        });
        (pushes, finals)
    }
}

fn setup(cfg: &Config) -> Env {
    let script = Requests::new(cfg);
    let server = harness::serve(cars::catalog(cfg.catalog_rows(), cfg.seed));
    let origin = Instant::now();

    let mut w = Client::connect(server.local_addr()).expect("connect to own server");
    let mut snapshots = Vec::new();
    for sql in &script.standing {
        let reply = w
            .request(&format!("WATCH {sql}"))
            .expect("WATCH round trip");
        let id = reply
            .status
            .strip_prefix("OK watching ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|id| id.parse().ok())
            .unwrap_or_else(|| panic!("WATCH refused: {}", reply.status));
        snapshots.push((id, reply.body));
    }
    let w = std::thread::spawn(move || {
        let mut pushes = Vec::new();
        loop {
            let frame = w
                .wait_push(Duration::from_secs(30))
                .map_err(|e| format!("W lost its push stream: {e}"))?;
            let at_ns = origin.elapsed().as_nanos() as u64;
            if frame.body.iter().any(|l| marker_of(l) == Some(STOP)) {
                let _ = w.request("QUIT");
                return Ok(pushes);
            }
            pushes.push(Push { at_ns, frame });
        }
    });

    let mut m = Client::connect(server.local_addr()).expect("connect to own server");
    for line in &script.prepare {
        let reply = m.request(line).expect("PREPARE round trip");
        assert!(reply.is_ok(), "PREPARE refused: {}", reply.status);
    }
    Env {
        server,
        script,
        m,
        w: Some(w),
        snapshots,
        origin,
        log: Vec::new(),
        sent_ns: HashMap::new(),
        next_step: 0,
        failures: Vec::new(),
        requests: 0,
    }
}

fn teardown(mut env: Env) {
    env.finish();
    let _ = env.m.request("QUIT");
    let Env { server, m, .. } = env;
    drop(m);
    server.shutdown();
}

/// Apply W's push stream to the `WATCH` snapshots: the answers W
/// believes in, as sorted multisets of rendered rows.
fn fold(snapshots: &[(u64, Vec<String>)], pushes: &[Push]) -> Result<Vec<Vec<String>>, String> {
    let mut answers: HashMap<u64, Vec<String>> = snapshots.iter().cloned().collect();
    for p in pushes {
        let id: u64 = p
            .frame
            .status
            .split_whitespace()
            .nth(1)
            .and_then(|id| id.parse().ok())
            .ok_or_else(|| format!("malformed push status: {}", p.frame.status))?;
        let answer = answers
            .get_mut(&id)
            .ok_or_else(|| format!("push for unknown watch {id}"))?;
        for delta in &p.frame.body {
            if let Some(row) = delta.strip_prefix('+') {
                answer.push(row.to_string());
            } else if let Some(row) = delta.strip_prefix('-') {
                let at = answer
                    .iter()
                    .position(|r| r == row)
                    .ok_or_else(|| format!("push removes a row watch {id} never had: {row}"))?;
                answer.swap_remove(at);
            }
        }
    }
    Ok(snapshots
        .iter()
        .map(|(id, _)| {
            let mut rows = answers.remove(id).unwrap_or_default();
            rows.sort_unstable();
            rows
        })
        .collect())
}

/// Replay M's mutations serially into the reference database and
/// compare each standing query's final answer with (a) what M reads at
/// the end and (b) W's snapshots with every push applied.
fn oracle(cfg: &Config, env: &Env, pushes: &[Push], finals: &[String]) -> (u64, Vec<String>) {
    let mut reference: PrefSql = harness::reference_db(cars::catalog(cfg.catalog_rows(), cfg.seed));
    for line in &env.log {
        let applied = match pref_server::Command::parse(line) {
            Ok(pref_server::Command::Append(table, values)) => reference
                .append_row(&table, values)
                .map_err(|e| e.to_string()),
            Ok(pref_server::Command::Delete(sql)) => {
                reference.delete(&sql).map(drop).map_err(|e| e.to_string())
            }
            _ => Err("not a mutation".to_string()),
        };
        if let Err(e) = applied {
            return (1, vec![format!("reference replay failed on {line}: {e}")]);
        }
    }
    let folded = fold(&env.snapshots, pushes);
    let mut mismatches = Vec::new();
    let standing = &env.script.standing;
    for (i, sql) in standing.iter().enumerate() {
        let expected = match reference.execute(sql) {
            Ok(res) => res.relation,
            Err(e) => {
                mismatches.push(format!("reference cannot run {sql}: {e}"));
                continue;
            }
        };
        let mut expected_rows: Vec<String> = expected
            .to_string()
            .lines()
            .skip(1)
            .map(String::from)
            .collect();
        // (a) the server's final answer, byte for byte.
        let mut observed = finals[i].clone();
        if cfg.inject_mismatch && i == 0 {
            observed.push_str("injected mismatch\n");
        }
        if observed != harness::relation_reply(&expected).frame() {
            mismatches.push(format!("oracle mismatch (final answer): {sql}"));
        }
        // (b) W's view: snapshot plus pushes, as a multiset.
        expected_rows.sort_unstable();
        match &folded {
            Ok(answers) if answers[i] == expected_rows => {}
            Ok(_) => mismatches.push(format!("oracle mismatch (push stream): {sql}")),
            Err(e) => mismatches.push(format!("{e} ({sql})")),
        }
    }
    (2 * standing.len() as u64, mismatches)
}

pub fn run(cfg: &Config, trace: bool) -> Outcome {
    let calib_before = harness::calib_ns();
    let (mut env, first_setup_s) = harness::timed(|| setup(cfg));
    for _ in 0..warm_steps(cfg) {
        env.run_step(None, &mut Vec::new());
    }
    let mut input = Fnv::new();
    harness::hash_relation(&mut input, &cars::catalog(cfg.catalog_rows(), cfg.seed));
    (0..64)
        .flat_map(|k| env.script.step(k))
        .for_each(|l| input.str(&l));

    let seconds = if trace {
        cfg.seconds * sql_trace::LOAD_SHARE
    } else {
        cfg.seconds
    };
    let duration = Duration::from_secs_f64(seconds);
    let before = env.server.state().engine().cache_stats();
    let mut ops: Vec<Op> = Vec::new();
    let requests_before = env.requests;
    let failures_before = env.failures.len();
    let first_measured = MARKER_BASE + env.next_step as i64;
    let start = Instant::now();
    while start.elapsed() < duration {
        env.run_step(Some(start), &mut ops);
    }
    let (pushes, finals) = env.finish();
    let after = env.server.state().engine().cache_stats();
    let peak_rss_mb = harness::peak_rss_mb();

    let throughput = load::sliced_rps(ops.iter().map(|o| o.done_ns), duration.as_nanos() as u64);
    let of = |mutation: bool| {
        stats::sorted(
            ops.iter()
                .filter(|o| o.mutation == mutation)
                .map(|o| o.lat_ns)
                .collect(),
        )
    };
    let (query_ns, mutate_ns) = (of(false), of(true));
    let queries = || {
        let queries = ops.iter().filter(|o| !o.mutation);
        queries.map(|o| (o.start_ns(), o.lat_ns))
    };
    let sliced = |q: f64| load::sliced_percentile(queries(), duration.as_nanos() as u64, q) / 1e6;
    let (p50_ms, p90_ms) = (sliced(0.50), sliced(0.90));
    // Push lag: APPEND sent on M → the frame carrying its `+` line fully
    // read on W, first sighting only, measured steps only.
    let mut seen = std::collections::HashSet::new();
    let mut lag_ns = Vec::new();
    let mut measured_pushes = 0usize;
    for p in &pushes {
        let mut counted = false;
        for marker in p.frame.body.iter().filter_map(|l| marker_of(l)) {
            if marker < first_measured {
                continue;
            }
            counted = true;
            if let (true, Some(sent)) = (seen.insert(marker), env.sent_ns.get(&marker)) {
                lag_ns.push(p.at_ns.saturating_sub(*sent));
            }
        }
        measured_pushes += usize::from(counted);
    }
    let lag_ns = stats::sorted(lag_ns);
    report::print_tail("mutate-watch", "query", &query_ns);
    report::print_tail("mutate-watch", "mutate", &mutate_ns);
    report::print_tail("mutate-watch", "push_lag", &lag_ns);

    let (checked, mismatches) = oracle(cfg, &env, &pushes, &finals);
    let requests = env.requests - requests_before;
    let mut failures: Vec<String> = env.failures.split_off(failures_before);
    let mut failed = failures.len() as u64 + mismatches.len() as u64;
    let mismatched = mismatches.len();
    failures.extend(mismatches);
    let attempted = requests + checked;

    let mut metrics;
    if trace {
        metrics = Metrics::new(&PER_LAYER);
        metrics.set(
            "query_p99_ms",
            ms(percentile(&query_ns, 0.99)),
            query_ns.len(),
        );
        metrics.set(
            "mutate_p50_ms",
            ms(percentile(&mutate_ns, 0.50)),
            mutate_ns.len(),
        );
        metrics.set(
            "mutate_p99_ms",
            ms(percentile(&mutate_ns, 0.99)),
            mutate_ns.len(),
        );
        metrics.set(
            "push_lag_p50_ms",
            ms(percentile(&lag_ns, 0.50)),
            lag_ns.len(),
        );
        metrics.set(
            "push_lag_p95_ms",
            ms(percentile(&lag_ns, 0.95)),
            lag_ns.len(),
        );
        metrics.set(
            "session.pushes_per_mutation",
            measured_pushes as f64 / mutate_ns.len().max(1) as f64,
            mutate_ns.len(),
        );
        metrics.set(
            "loadgen.achieved_rps",
            ops.len() as f64 / seconds,
            ops.len(),
        );
        metrics.set("bmo.oracle_checked", checked as f64, checked as usize);
        metrics.set("bmo.oracle_mismatches", mismatched as f64, checked as usize);
        sql_trace::cache_counters(&mut metrics, &before, &after);

        let warm = warm_steps(cfg);
        let warm_lines: Vec<String> = (0..warm).flat_map(|k| env.script.step(k)).collect();
        let sample: Vec<String> = (warm..)
            .flat_map(|k| env.script.step(k))
            .take(sql_trace::SAMPLE)
            .collect();
        let catalog = || cars::catalog(cfg.catalog_rows(), cfg.seed);
        let traced = sql_trace::replay(
            &Script {
                workload: "mutate-watch",
                catalog: &catalog,
                prepare: &env.script.prepare,
                watches: &env.script.standing,
                warm: &warm_lines,
                lines: &sample,
            },
            &mut metrics,
        );
        failed += traced.len() as u64;
        failures.extend(traced);
        metrics.set(
            "error_rate",
            failed as f64 / attempted as f64,
            attempted as usize,
        );
    } else {
        metrics = Metrics::new(&END_TO_END);
        metrics.set("throughput_rps", throughput, ops.len());
        metrics.set("query_p50_ms", p50_ms, query_ns.len());
        metrics.set("query_p90_ms", p90_ms, query_ns.len());
        metrics.set("peak_rss_mb", peak_rss_mb, 1);
    }
    let _ = env.m.request("QUIT");
    let Env { server, m, .. } = env;
    drop(m);
    server.shutdown();
    if trace {
        layers::calib(&mut metrics, calib_before, harness::calib_ns());
    } else {
        let (setup_s, n) = harness::setup_seconds(first_setup_s, || setup(cfg), teardown);
        metrics.set("setup_s", setup_s, n);
    }
    failures.truncate(8);
    Outcome {
        attempted,
        failed,
        input_hash: input.0,
        metrics,
        failures,
    }
}
