//! What the four workloads share: run parameters, the in-process
//! server, the reference database the outputs are checked against, and
//! the process-level measurements (peak RSS, machine-speed probe).

use std::time::{Duration, Instant};

use pref_query::{Algorithm, Optimizer};
use pref_relation::Relation;
use pref_server::{Client, Reply, Server, ServerState};
use pref_sql::PrefSql;

use crate::stats;

/// Parameters of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seeds every generated input.
    pub seed: u64,
    /// Length of the measured phases, seconds.
    pub seconds: f64,
    /// Tiny sizes for the smoke tests (debug profile, < 30 s).
    pub smoke: bool,
    /// Test-only hook: corrupt one observed output before the oracle
    /// compares it, to prove a mismatch fails the run.
    pub inject_mismatch: bool,
}

impl Config {
    /// Rows of the `car` catalog the SQL workloads query.
    pub fn catalog_rows(&self) -> usize {
        if self.smoke {
            500
        } else {
            20_000
        }
    }
}

/// `setup_s` is a median over repeated set-ups, so that one
/// descheduled set-up does not move it: at least this many …
const SETUP_REPEATS_MIN: usize = 5;
/// … and more of a cheap one, until this much time went into them.
const SETUP_REPEATS_FOR: Duration = Duration::from_secs(1);
const SETUP_REPEATS_MAX: usize = 25;

/// Time one call of `setup`.
pub fn timed<E>(setup: impl FnOnce() -> E) -> (E, f64) {
    let start = Instant::now();
    let env = setup();
    (env, start.elapsed().as_secs_f64())
}

/// The median set-up time and its sample count: `first_s` (the set-up
/// the run measured on) plus repeats that are torn down at once. Call
/// this *after* the measured phase and after reading the peak RSS — a
/// torn-down server lets go of its memory only as its connection
/// threads notice, so repeats made up front overlap the run and make
/// its peak a matter of timing.
pub fn setup_seconds<E>(
    first_s: f64,
    mut setup: impl FnMut() -> E,
    teardown: impl Fn(E),
) -> (f64, usize) {
    let mut times = vec![first_s];
    let start = Instant::now();
    while times.len() < SETUP_REPEATS_MIN
        || (times.len() < SETUP_REPEATS_MAX && start.elapsed() < SETUP_REPEATS_FOR)
    {
        let (env, s) = timed(&mut setup);
        times.push(s);
        teardown(env);
    }
    (stats::median(&times), times.len())
}

/// A server over `catalog` registered as table `car`, bound to an
/// ephemeral loopback port in this process.
pub fn serve(catalog: Relation) -> Server {
    let mut db = PrefSql::new();
    db.register("car", catalog);
    Server::bind(ServerState::new(db), "127.0.0.1:0").expect("bind loopback")
}

/// A load-generator worker over one TCP connection: the framed reply,
/// or the error text of a transport failure or an `ERR` reply.
pub fn tcp_worker(server: &Server) -> impl FnMut(&str) -> Result<String, String> + Send {
    let mut client = Client::connect(server.local_addr()).expect("connect to own server");
    move |line: &str| match client.request(line) {
        Ok(reply) if reply.is_ok() => Ok(reply.frame()),
        Ok(reply) => Err(reply.status),
        Err(e) => Err(format!("transport: {e}")),
    }
}

/// The reference database: no cache tier can serve anything (capacity
/// 0), no planner choice, no score matrix — every statement runs the
/// generic term-walk BNL from scratch.
pub fn reference_db(catalog: Relation) -> PrefSql {
    let engine = pref_query::Engine::with_optimizer(
        Optimizer::new()
            .with_algorithm(Algorithm::Bnl)
            .without_materialization(),
    )
    .with_capacity(0);
    let mut db = PrefSql::new().with_engine(engine);
    db.register("car", catalog);
    db
}

/// The reply `Session::reply_result` renders for a result relation:
/// the row count, then the relation's own display line by line.
pub fn relation_reply(r: &Relation) -> Reply {
    Reply::ok(format!("{} row(s)", r.len()))
        .with_body(r.to_string().lines().map(String::from).collect())
}

/// `EXEC <sql>` for every statement of a stream.
pub fn exec_lines(statements: Vec<String>) -> Vec<String> {
    statements
        .into_iter()
        .map(|sql| format!("EXEC {sql}"))
        .collect()
}

/// A seeded sample mask over `len` requests: each position in
/// `from..len` is kept with probability `share`, at most `cap` in all.
pub fn sample_mask(len: usize, from: usize, share: f64, cap: usize, seed: u64) -> Vec<bool> {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed ^ 0x05ac_1e5a_3b1e);
    let mut left = cap;
    (0..len)
        .map(|i| {
            let keep = i >= from && left > 0 && rng.random_bool(share);
            left -= usize::from(keep);
            keep
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// The machine-speed probe: a fixed integer loop (an xorshift chain the
/// compiler cannot fold), best of five. Timed before and after each
/// workload so drift of the box is visible beside the numbers; never
/// used to rescale them.
pub fn calib_ns() -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
            for _ in 0..2_000_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Where the span files and `latest.json` go: `results/` beside this
/// package's manifest (git-ignored), or `PERFBENCH_RESULTS_DIR` (the
/// tests, which run in parallel, each name a directory of their own).
pub fn results_dir() -> std::path::PathBuf {
    match std::env::var_os("PERFBENCH_RESULTS_DIR") {
        Some(dir) => dir.into(),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results"),
    }
}

/// Fold every row of `r` into the input fingerprint.
pub fn hash_relation(input: &mut crate::report::Fnv, r: &Relation) {
    for row in r.iter() {
        input.str(&row.to_string());
    }
}
