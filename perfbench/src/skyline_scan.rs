//! `skyline-scan`: one-shot winnow evaluation, in process.
//!
//! No SQL, no server, no warm cache: every query is a fresh
//! `Engine::new().prepare(p, schema)` → `Prepared::execute_rel(r)` over
//! a synthetic table, so the matrix build (`eval`) and the skyline
//! algorithm (`algorithms`) do all the work. The 18 cells —
//! {independent, correlated, anti-correlated} × d ∈ {2, 4, 6} ×
//! {skyline, AROUND} — span result sizes from a handful of rows to
//! thousands, which is where dominance-test cost, matrix-vs-generic
//! and the planner's algorithm choice show. One caller thread; the
//! engine may use the second core itself.

use std::time::Instant;

use pref_bench::{around_pref, skyline_pref};
use pref_core::eval::CompiledPref;
use pref_core::term::Pref;
use pref_query::algorithms::bnl::bnl_generic;
use pref_query::bmo::sigma_naive_generic;
use pref_query::{Algorithm, CacheStatus, Engine};
use pref_relation::Relation;
use pref_workload::synthetic::{self, Distribution};
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::harness::{self, Config};
use crate::layers::{self, set_median, Below};
use crate::load::CONNECTIONS;
use crate::report::{Fnv, Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::stats::{self, percentile};
use crate::trace::Tracer;

const DIMS: [usize; 3] = [2, 4, 6];

/// Rows of the instance every cell is checked on against the naive
/// quadratic test of Def. 15.
const NAIVE_ROWS: usize = 2_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Skyline,
    Around,
}

/// One cell: which table of the pass, which preference over it.
#[derive(Debug, Clone, Copy)]
struct Cell {
    table: usize,
    d: usize,
    shape: Shape,
}

impl Cell {
    fn pref(&self) -> Pref {
        match self.shape {
            Shape::Skyline => skyline_pref(self.d),
            Shape::Around => around_pref(self.d),
        }
    }
}

fn rows(cfg: &Config) -> usize {
    if cfg.smoke {
        500
    } else {
        25_000
    }
}

/// The 9 tables of one pass (distribution-major, then dimension).
fn tables(n: usize, seed: u64) -> Vec<Relation> {
    Distribution::all()
        .into_iter()
        .flat_map(|dist| DIMS.map(|d| synthetic::table(n, d, dist, seed)))
        .collect()
}

fn cells() -> Vec<Cell> {
    (0..Distribution::all().len() * DIMS.len())
        .flat_map(|table| {
            let d = DIMS[table % DIMS.len()];
            [Shape::Skyline, Shape::Around].map(|shape| Cell { table, d, shape })
        })
        .collect()
}

fn shuffled(mut cells: Vec<Cell>, rng: &mut StdRng) -> Vec<Cell> {
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.random_range(0..=i));
    }
    cells
}

/// The rows of a result as sorted display lines: a row *set* compare.
fn row_set(r: &Relation) -> Vec<String> {
    let mut lines: Vec<String> = r.iter().map(|t| t.to_string()).collect();
    lines.sort_unstable();
    lines
}

fn hash_tables(input: &mut Fnv, tables: &[Relation]) {
    for t in tables {
        for row in t.iter() {
            for i in 0..t.schema().arity() {
                input.bytes(&row[i].as_f64().unwrap_or(0.0).to_bits().to_le_bytes());
            }
        }
    }
}

/// Compare one observed result with `oracle`'s row indices over `r`.
fn check(
    what: &str,
    cell: &Cell,
    r: &Relation,
    observed: &Relation,
    oracle: &[usize],
    failures: &mut Vec<String>,
) {
    if row_set(observed) == row_set(&r.take_rows(oracle)) {
        return;
    }
    failures.push(format!(
        "oracle mismatch ({what}) on table {} d={} {:?}: {} rows vs {}",
        cell.table,
        cell.d,
        cell.shape,
        observed.len(),
        oracle.len()
    ));
}

fn one_shot(pref: &Pref, r: &Relation) -> Relation {
    Engine::new()
        .prepare(pref, r.schema())
        .and_then(|p| p.execute_rel(r))
        .expect("synthetic cells evaluate")
}

pub fn run(cfg: &Config, trace: bool) -> Outcome {
    if trace {
        return run_traced(cfg);
    }
    let n = rows(cfg);
    let (mut pass_tables, first_setup_s) = harness::timed(|| tables(n, cfg.seed));
    let mut input = Fnv::new();
    hash_tables(&mut input, &pass_tables);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5c4e_11e5);

    // Per pass: queries/s, median and p90 query time. The 18 cells cost
    // 5 ms to 600 ms each, so a percentile pooled over all passes sits
    // on the edge between two cells and flips with the noise; the
    // per-pass figure (one value per sweep of the matrix) does not.
    let mut queries = 0usize;
    let (mut pass_rates, mut pass_p50, mut pass_p90) = (Vec::new(), Vec::new(), Vec::new());
    // Pass 0's results, kept for the oracle.
    let mut first_pass: Vec<(Cell, Relation)> = Vec::new();
    let first_tables = pass_tables.clone();
    let mut measured_s = 0.0;
    let mut pass = 0u64;
    while measured_s < cfg.seconds || pass == 0 {
        if pass > 0 {
            pass_tables = tables(n, cfg.seed + pass);
        }
        let mut query_ms: Vec<f64> = Vec::new();
        for cell in shuffled(cells(), &mut rng) {
            let pref = cell.pref();
            let r = &pass_tables[cell.table];
            let start = Instant::now();
            let out = std::hint::black_box(one_shot(&pref, r));
            query_ms.push(start.elapsed().as_secs_f64() * 1e3);
            if pass == 0 {
                first_pass.push((cell, out));
            }
        }
        let pass_s = query_ms.iter().sum::<f64>() / 1e3;
        pass_rates.push(query_ms.len() as f64 / pass_s);
        pass_p50.push(stats::median(&query_ms));
        query_ms.sort_by(f64::total_cmp);
        pass_p90.push(percentile(&query_ms, 0.90));
        queries += query_ms.len();
        measured_s += pass_s;
        pass += 1;
    }
    let peak_rss_mb = harness::peak_rss_mb();

    // Outputs: pass 0 against the generic term-walk BNL at full size
    // (both cores), and every cell against Def. 15 on a small instance.
    let mut failures = Vec::new();
    if cfg.inject_mismatch {
        let (cell, _) = first_pass[0];
        first_pass[0].1 = first_tables[cell.table].take_rows(&[]);
    }
    let half = first_pass.len().div_ceil(CONNECTIONS);
    let bad: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = first_pass
            .chunks(half)
            .map(|chunk| {
                let tables = &first_tables;
                scope.spawn(move || {
                    let mut bad = Vec::new();
                    for (cell, observed) in chunk {
                        let r = &tables[cell.table];
                        let c = CompiledPref::compile(&cell.pref(), r.schema())
                            .expect("synthetic preferences compile");
                        check(
                            "bnl_generic",
                            cell,
                            r,
                            observed,
                            &bnl_generic(&c, r),
                            &mut bad,
                        );
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    failures.extend(bad);
    let mut checked = first_pass.len() as u64;
    let small = tables(NAIVE_ROWS.min(n), cfg.seed ^ 0x0dd);
    for cell in cells() {
        let r = &small[cell.table];
        let pref = cell.pref();
        let oracle = sigma_naive_generic(&pref, r).expect("naive evaluation");
        check(
            "Def. 15",
            &cell,
            r,
            &one_shot(&pref, r),
            &oracle,
            &mut failures,
        );
        checked += 1;
    }
    let failed = failures.len() as u64;

    let (setup_s, setups) = harness::setup_seconds(first_setup_s, || tables(n, cfg.seed), drop);
    let mut metrics = Metrics::new(&END_TO_END);
    metrics.set("setup_s", setup_s, setups);
    metrics.set("throughput_rps", stats::median(&pass_rates), queries);
    metrics.set("query_p50_ms", stats::median(&pass_p50), queries);
    metrics.set("query_p90_ms", stats::median(&pass_p90), queries);
    metrics.set("peak_rss_mb", peak_rss_mb, 1);
    failures.truncate(8);
    Outcome {
        attempted: queries as u64 + checked,
        failed,
        input_hash: input.0,
        metrics,
        failures,
    }
}

/// The traced run: every cell once, decomposed by hand. The `request`
/// root is the one-shot query as the untraced run issues it, its
/// children the engine calls it consists of; the `layers` root calls
/// the layers below the engine alone, on the same input.
fn run_traced(cfg: &Config) -> Outcome {
    let calib_before = harness::calib_ns();
    let n = rows(cfg);
    let pass_tables = tables(n, cfg.seed);
    let mut input = Fnv::new();
    hash_tables(&mut input, &pass_tables);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5c4e_11e5);
    let order = shuffled(cells(), &mut rng);

    let mut tracer = Tracer::new();
    let mut below = Below::default();
    let mut failures = Vec::new();
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let mut executions: Vec<(CacheStatus, u64)> = Vec::new();
    let mut chosen: Vec<Algorithm> = Vec::new();
    let mut est_ratio = Vec::new();

    for (id, cell) in order.iter().enumerate() {
        let r = &pass_tables[cell.table];
        let pref = cell.pref();

        // The same query with recording off, for the overhead figure.
        let start = Instant::now();
        std::hint::black_box(one_shot(&pref, r));
        untraced_ns += start.elapsed().as_nanos() as u64;

        let root = tracer.open("request", None, id as u64);
        let engine = Engine::new();
        let (prepared, _) = tracer.child("engine.prepare", root, || {
            engine
                .prepare(&pref, r.schema())
                .expect("synthetic preferences compile")
        });
        let (plan, _) = tracer.child("plan.plan", root, || prepared.plan(r));
        tracer.child("plan.cached", root, || prepared.plan(r));
        let (result, exec_ns) = tracer.child("engine.execute", root, || {
            prepared.execute(r).expect("synthetic cells evaluate")
        });
        let (mut observed, _) =
            tracer.child("relation.materialize", root, || r.take_rows(result.rows()));
        tracer.close(root);
        traced_ns += tracer.spans[root].dur_ns();

        executions.push((result.cache(), exec_ns));
        chosen.push(result.explain().algorithm);
        est_ratio.push(plan.estimated_result / result.rows().len().max(1) as f64);

        let layers = tracer.open("layers", None, id as u64);
        let built = below.eval(&mut tracer, layers, prepared.term(), r);
        let (compiled, matrix, build_ns) = built.expect("synthetic cells materialize");
        let (via_matrix, via_generic) =
            below.algorithms(&mut tracer, layers, &compiled, &matrix, build_ns, r);
        let upper_half = |t: &pref_relation::Tuple| t[0].as_f64().is_some_and(|x| x >= 0.5);
        below.storage(
            &mut tracer,
            layers,
            r,
            upper_half,
            Some((&compiled, &matrix)),
        );
        tracer.close(layers);

        // Outputs: engine, matrix BNL and generic BNL must agree.
        if cfg.inject_mismatch && id == 0 {
            observed = r.take_rows(&[]);
        }
        check(
            "bnl_generic",
            cell,
            r,
            &observed,
            &via_generic,
            &mut failures,
        );
        check("bnl_matrix", cell, r, &observed, &via_matrix, &mut failures);
    }

    let failed = failures.len() as u64;
    let checked = 2 * order.len();
    let mut metrics = Metrics::new(&PER_LAYER);
    metrics.set("bmo.oracle_checked", checked as f64, checked);
    metrics.set("bmo.oracle_mismatches", failed as f64, checked);
    metrics.set("error_rate", failed as f64 / checked as f64, checked);
    set_median(
        &mut metrics,
        "engine.prepare_ns",
        &tracer.durations("engine.prepare"),
    );
    set_median(&mut metrics, "plan.plan_ns", &tracer.durations("plan.plan"));
    set_median(
        &mut metrics,
        "plan.cached_ns",
        &tracer.durations("plan.cached"),
    );
    layers::by_status(&mut metrics, &executions);
    layers::chosen_counts(&mut metrics, &chosen);
    metrics.set(
        "plan.est_result_ratio",
        stats::median(&est_ratio),
        est_ratio.len(),
    );
    below.report(&mut metrics);
    metrics.set(
        "harness.trace_overhead_pct",
        (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64 * 100.0,
        order.len(),
    );
    layers::finish(&mut metrics, &tracer, "skyline-scan", order.len());
    layers::calib(&mut metrics, calib_before, harness::calib_ns());
    failures.truncate(8);
    Outcome {
        attempted: (order.len() + checked) as u64,
        failed,
        input_hash: input.0,
        metrics,
        failures,
    }
}
