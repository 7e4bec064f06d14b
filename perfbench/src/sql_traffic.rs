//! The two read-only SQL workloads over TCP.
//!
//! `sessions-warm`: refinement sessions (anchor, tighten the price cap,
//! linger, sometimes wander) whose 8 anchor preferences fit the
//! 64-entry engine cache, so most requests resolve in a warm tier and
//! only the wanders build cold. Latency comes from an open loop at a
//! fixed 200 req/s (under a quarter of capacity), throughput from a closed
//! loop.
//!
//! `adhoc-cold`: every statement of the customer log exactly once —
//! far more distinct (WHERE, preference) keys than cache entries — so
//! nearly every request pays parse, bind, scan, plan, build, algorithm
//! and render. Closed loop only.

use std::time::Duration;

use pref_bench::loadgen::interleave_sessions;
use pref_server::{Reply, Server};
use pref_sql::PrefSql;
use pref_workload::{cars, sessions};

use crate::harness::{self, Config};
use crate::layers;
use crate::load::{self, LoadRun, CONNECTIONS};
use crate::report::{self, Fnv, Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::sql_trace::{self, Script};
use crate::stats::{ms, percentile};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SessionsWarm,
    AdhocCold,
}

/// Open-loop arrival rate of the `sessions-warm` traced run,
/// requests/s: about 40 % of what two connections complete closed-loop
/// here (≈ 970 req/s). Its latency is not an end-to-end metric: at a
/// fixed rate a queue multiplies machine noise — when this shared box
/// ran 10–25 % slow for a few minutes, open-loop p50 went from 2.1 ms
/// to 4.1 ms (10 seeds: spread 0.51, p90 0.47) while the closed loop
/// moved by those 10–25 % — and no bound up to 0.25 holds over that.
const OPEN_RATE: f64 = 400.0;

/// Seed of the `sessions-warm` statement stream, whatever `--seed` is.
/// The cost of a session under `session_scripts` is heavy-tailed — over
/// 150 sessions on this catalog 9 ms to 8.2 s, reply 6 KB to 5.8 MB,
/// coefficient of variation 3.6 — so with a per-seed pool of 8 anchors
/// closed-loop capacity swung 98–600 req/s between seeds and no metric
/// could hold a bound. The anchor pool and the session scripts are
/// therefore part of the workload's definition, like the query set of
/// a standard benchmark; `--seed` draws the catalog they run on, the
/// arrival schedule and the oracle sample.
const STREAM_SEED: u64 = 1;

/// Sessions in flight at once: the stream is a sequence of batches of
/// this many interleaved sessions, so anchors, refinements and wanders
/// are mixed evenly along it instead of all anchors coming first.
const CONCURRENT_SESSIONS: usize = 24;
const SESSION_STEPS: usize = 12;

/// Share and cap of the requests re-executed on the reference database.
const ORACLE_SHARE: f64 = 0.05;
const ORACLE_CAP: usize = 120;

type Worker = Box<dyn FnMut(&str) -> Result<String, String> + Send>;

struct Env {
    server: Server,
    workers: Vec<Worker>,
    /// `EXEC …` lines: warm-up first, then the measured phases.
    stream: Vec<String>,
    warm: usize,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::SessionsWarm => "sessions-warm",
            Kind::AdhocCold => "adhoc-cold",
        }
    }

    /// Untimed warm-up requests: about a tenth of what the measured
    /// phases send at this container's rates.
    fn warm_requests(self, seconds: f64) -> usize {
        let per_second = match self {
            Kind::SessionsWarm => 45.0,
            Kind::AdhocCold => 55.0,
        };
        (per_second * seconds).ceil() as usize + 8
    }

    /// Statements to generate so the closed loop cannot run out: eight
    /// times this container's closed-loop rate, for the whole run (the
    /// 500-row smoke catalog answers another eight times faster).
    fn stream_len(self, cfg: &Config) -> usize {
        let per_second = match self {
            Kind::SessionsWarm => 1_800.0,
            Kind::AdhocCold => 6_000.0,
        };
        let per_second = if cfg.smoke {
            per_second * 8.0
        } else {
            per_second
        };
        self.warm_requests(cfg.seconds) + (per_second * cfg.seconds).ceil() as usize + 64
    }

    fn stream(self, cfg: &Config) -> Vec<String> {
        let len = self.stream_len(cfg);
        match self {
            Kind::SessionsWarm => {
                let count = len.div_ceil(SESSION_STEPS);
                let scripts = sessions::session_scripts(count, SESSION_STEPS, STREAM_SEED);
                let stream = scripts
                    .chunks(CONCURRENT_SESSIONS)
                    .flat_map(interleave_sessions)
                    .collect();
                harness::exec_lines(stream)
            }
            Kind::AdhocCold => harness::exec_lines(sessions::sql_customer_log(len, cfg.seed)),
        }
    }
}

fn setup(kind: Kind, cfg: &Config) -> Env {
    let server = harness::serve(cars::catalog(cfg.catalog_rows(), cfg.seed));
    let stream = kind.stream(cfg);
    let workers: Vec<Worker> = (0..CONNECTIONS)
        .map(|_| Box::new(harness::tcp_worker(&server)) as Worker)
        .collect();
    let warm = kind.warm_requests(cfg.seconds);
    Env {
        server,
        workers,
        stream,
        warm,
    }
}

/// The untimed warm-up: the first `warm` requests, as fast as the two
/// connections go, nothing recorded.
fn warm_up(env: &mut Env) {
    let due_now = vec![0; env.warm];
    let run = load::open_loop(&env.stream, 0, &due_now, &[], borrow(&mut env.workers));
    assert_eq!(run.failed(), 0, "warm-up failed: {:?}", run.failures);
}

fn teardown(env: Env) {
    let Env {
        server,
        mut workers,
        ..
    } = env;
    for w in &mut workers {
        let _ = w("QUIT");
    }
    drop(workers);
    server.shutdown();
}

fn borrow(workers: &mut [Worker]) -> Vec<impl FnMut(&str) -> Result<String, String> + Send + '_> {
    workers
        .iter_mut()
        .map(|w| move |line: &str| w(line))
        .collect()
}

/// The measured phases of one run.
struct Phases {
    /// `sessions-warm`, traced run only: the fixed-rate phase.
    open: Option<LoadRun>,
    closed: LoadRun,
    closed_ns: u64,
}

fn measure(cfg: &Config, env: &mut Env, seconds: f64, keep: &[bool], with_open: bool) -> Phases {
    let mut first = env.warm;
    let mut closed_s = seconds;
    let open = with_open.then(|| {
        closed_s = seconds / 2.0;
        let n = ((OPEN_RATE * seconds / 2.0).ceil() as usize).max(1);
        let schedule = sessions::poisson_arrivals(n, OPEN_RATE, cfg.seed);
        let run = load::open_loop(
            &env.stream,
            first,
            &schedule,
            keep,
            borrow(&mut env.workers),
        );
        first += n;
        run
    });
    let duration = Duration::from_secs_f64(closed_s);
    let closed = load::closed_loop(&env.stream, first, duration, keep, borrow(&mut env.workers));
    Phases {
        open,
        closed,
        closed_ns: duration.as_nanos() as u64,
    }
}

/// The reply the server would frame for `sql` answered by `db`.
fn reference_frame(db: &PrefSql, sql: &str) -> String {
    match db.execute(sql) {
        Ok(res) => harness::relation_reply(&res.relation).frame(),
        Err(e) => Reply::err(e).frame(),
    }
}

/// Re-execute the kept requests on the reference database, on both
/// cores, and return `(checked, mismatches as text)`.
fn oracle(cfg: &Config, stream: &[String], mut kept: Vec<(usize, String)>) -> (u64, Vec<String>) {
    kept.sort_by_key(|(idx, _)| *idx);
    if cfg.inject_mismatch {
        if let Some((_, frame)) = kept.first_mut() {
            frame.push_str("injected mismatch\n");
        }
    }
    let db = harness::reference_db(cars::catalog(cfg.catalog_rows(), cfg.seed));
    let half = kept.len().div_ceil(2).max(1);
    let mismatches = std::thread::scope(|scope| {
        let handles: Vec<_> = kept
            .chunks(half)
            .map(|chunk| {
                let db = &db;
                scope.spawn(move || {
                    let mut bad = Vec::new();
                    for (idx, observed) in chunk {
                        let sql = stream[*idx].trim_start_matches("EXEC ");
                        if *observed != reference_frame(db, sql) {
                            bad.push(format!("oracle mismatch on request {idx}: {sql}"));
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect::<Vec<_>>()
    });
    (kept.len() as u64, mismatches)
}

/// One run of `kind`. Untraced: the end-to-end metrics over
/// `cfg.seconds`. Traced: a shorter untraced load phase for the
/// generator and cache-tier numbers, then the decomposed replay.
pub fn run(kind: Kind, cfg: &Config, trace: bool) -> Outcome {
    let calib_before = harness::calib_ns();
    let (mut env, first_setup_s) = harness::timed(|| setup(kind, cfg));
    warm_up(&mut env);
    let mut input = Fnv::new();
    harness::hash_relation(&mut input, &cars::catalog(cfg.catalog_rows(), cfg.seed));
    env.stream.iter().for_each(|s| input.str(s));

    let seconds = if trace {
        cfg.seconds * sql_trace::LOAD_SHARE
    } else {
        cfg.seconds
    };
    let keep = harness::sample_mask(
        env.stream.len(),
        env.warm,
        ORACLE_SHARE,
        ORACLE_CAP,
        cfg.seed,
    );
    let before = env.server.state().engine().cache_stats();
    let with_open = trace && kind == Kind::SessionsWarm;
    let mut phases = measure(cfg, &mut env, seconds, &keep, with_open);
    let after = env.server.state().engine().cache_stats();
    let peak_rss_mb = harness::peak_rss_mb();

    // Latency: send-to-reply of the closed loop; the tail (traced run)
    // from the due time of the open loop where there is one.
    let closed_lat = phases.closed.latencies();
    let sliced =
        |run: &LoadRun, ns: u64, q: f64| load::sliced_percentile(run.timeline(), ns, q) / 1e6;
    let p50_ms = sliced(&phases.closed, phases.closed_ns, 0.50);
    let p90_ms = sliced(&phases.closed, phases.closed_ns, 0.90);
    let lat = phases
        .open
        .as_ref()
        .map_or_else(|| closed_lat.clone(), LoadRun::latencies);
    report::print_tail(kind.name(), "query", &lat);
    let throughput = load::sliced_rps(
        phases
            .closed
            .recs
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.done_ns),
        phases.closed_ns,
    );

    let mut kept = std::mem::take(&mut phases.closed.kept);
    let mut failures = std::mem::take(&mut phases.closed.failures);
    let mut requests = phases.closed.recs.len() as u64;
    let mut failed = phases.closed.failed();
    let mut wraps = phases.closed.wraps;
    if let Some(open) = &mut phases.open {
        kept.append(&mut open.kept);
        failures.append(&mut open.failures);
        requests += open.recs.len() as u64;
        failed += open.failed();
        wraps += open.wraps;
    }
    if wraps > 0 {
        failed += 1;
        failures.push(format!(
            "the request stream wrapped {wraps} time(s): raise Kind::stream_len"
        ));
    }
    let (checked, mismatches) = oracle(cfg, &env.stream, kept);
    let mismatched = mismatches.len() as u64;
    failures.extend(mismatches);
    failed += mismatched;
    let attempted = requests + checked;

    let mut metrics;
    if trace {
        metrics = Metrics::new(&PER_LAYER);
        metrics.set("query_p99_ms", ms(percentile(&lat, 0.99)), lat.len());
        if let Some(open) = &phases.open {
            let late = open.lateness();
            metrics.set(
                "loadgen.late_p99_ms",
                ms(percentile(&late, 0.99)),
                late.len(),
            );
            let open_ns = (seconds / 2.0 * 1e9) as u64;
            metrics.set("query_open_p50_ms", sliced(open, open_ns, 0.50), lat.len());
            metrics.set("query_open_p90_ms", sliced(open, open_ns, 0.90), lat.len());
        }
        metrics.set(
            "loadgen.achieved_rps",
            phases
                .open
                .as_ref()
                .unwrap_or(&phases.closed)
                .achieved_rps(),
            lat.len(),
        );
        metrics.set("loadgen.wraps", wraps as f64, requests as usize);
        metrics.set("bmo.oracle_checked", checked as f64, checked as usize);
        metrics.set("bmo.oracle_mismatches", mismatched as f64, checked as usize);
        sql_trace::cache_counters(&mut metrics, &before, &after);
        let sample_end = (env.warm + sql_trace::SAMPLE).min(env.stream.len());
        let catalog = || cars::catalog(cfg.catalog_rows(), cfg.seed);
        let traced = sql_trace::replay(
            &Script {
                workload: kind.name(),
                catalog: &catalog,
                prepare: &[],
                watches: &[],
                warm: &env.stream[..env.warm],
                lines: &env.stream[env.warm..sample_end],
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
        metrics.set("throughput_rps", throughput, phases.closed.recs.len());
        metrics.set("query_p50_ms", p50_ms, closed_lat.len());
        metrics.set("query_p90_ms", p90_ms, closed_lat.len());
        metrics.set("peak_rss_mb", peak_rss_mb, 1);
    }
    teardown(env);
    if trace {
        let calib_after = harness::calib_ns();
        layers::calib(&mut metrics, calib_before, calib_after);
    } else {
        let (setup_s, n) = harness::setup_seconds(first_setup_s, || setup(kind, cfg), teardown);
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
