//! Probes of the layers below the engine — `eval` (compile, matrix
//! build), `algorithms`, `relation`, `colstats` — each a direct call
//! into a public function on the input of one traced request, plus the
//! helpers every traced run uses to turn spans into metrics.

use pref_core::eval::{CompiledPref, ScoreMatrix};
use pref_core::term::Pref;
use pref_query::algorithms::bnl::{bnl_generic, bnl_matrix, bnl_parallel_matrix};
use pref_query::algorithms::dnc::try_dnc_compiled;
use pref_query::algorithms::sfs::try_sfs_with;
use pref_query::{Algorithm, CacheStatus};
use pref_relation::{ColumnStats, Relation};

use crate::harness;
use crate::load::CONNECTIONS;
use crate::report::Metrics;
use crate::stats;
use crate::trace::Tracer;

const STATUSES: [CacheStatus; 7] = [
    CacheStatus::Hit,
    CacheStatus::DerivedHit,
    CacheStatus::WindowHit,
    CacheStatus::ShardHit,
    CacheStatus::MaintainedHit,
    CacheStatus::Miss,
    CacheStatus::Bypass,
];

/// The metric-name suffix of a cache status.
fn status_key(s: CacheStatus) -> &'static str {
    match s {
        CacheStatus::Hit => "hit",
        CacheStatus::DerivedHit => "derived_hit",
        CacheStatus::WindowHit => "window_hit",
        CacheStatus::ShardHit => "shard_hit",
        CacheStatus::MaintainedHit => "maintained_hit",
        CacheStatus::Miss => "miss",
        CacheStatus::Bypass => "bypass",
    }
}

/// Record the median of `ns` under `name`; nothing when there is no
/// sample (the metric then reads 0 with `n=0`).
pub fn set_median(metrics: &mut Metrics, name: &str, ns: &[u64]) {
    if !ns.is_empty() {
        let v: Vec<f64> = ns.iter().map(|&x| x as f64).collect();
        metrics.set(name, stats::median(&v), ns.len());
    }
}

/// `engine.execute_ns.*` (median time) and `engine.served.*` (count)
/// from the `Prepared::execute` calls of a traced sample.
pub fn by_status(metrics: &mut Metrics, executions: &[(CacheStatus, u64)]) {
    for status in STATUSES {
        let key = status_key(status);
        let ns: Vec<u64> = executions
            .iter()
            .filter(|(s, _)| *s == status)
            .map(|(_, ns)| *ns)
            .collect();
        set_median(metrics, &format!("engine.execute_ns.{key}"), &ns);
        metrics.set(
            &format!("engine.served.{key}"),
            ns.len() as f64,
            executions.len(),
        );
    }
}

/// `plan.chose_*`: how often each algorithm was reported.
pub fn chosen_counts(metrics: &mut Metrics, chosen: &[Algorithm]) {
    let names = [
        ("plan.chose_bnl", Algorithm::Bnl),
        ("plan.chose_parallel_bnl", Algorithm::BnlParallel),
        ("plan.chose_sfs", Algorithm::Sfs),
        ("plan.chose_dnc", Algorithm::Dnc),
        ("plan.chose_cascade", Algorithm::Cascade),
        ("plan.chose_elided", Algorithm::Elided),
    ];
    let mut other = chosen.len();
    for (name, algorithm) in names {
        let count = chosen.iter().filter(|a| **a == algorithm).count();
        other -= count;
        metrics.set(name, count as f64, chosen.len());
    }
    metrics.set("plan.chose_other", other as f64, chosen.len());
}

/// The machine-speed probe before and after the workload.
pub fn calib(metrics: &mut Metrics, before_ns: f64, after_ns: f64) {
    metrics.set("harness.calib_ns", before_ns.min(after_ns), 2);
    metrics.set(
        "harness.calib_drift_pct",
        (after_ns - before_ns) / before_ns * 100.0,
        2,
    );
}

/// Close a traced run: the span-set figures, and the span file.
pub fn finish(metrics: &mut Metrics, tracer: &Tracer, workload: &str, requests: usize) {
    let faults = tracer.faults();
    for f in faults.iter().take(3) {
        eprintln!("trace fault: {f}");
    }
    metrics.set("trace.requests", requests as f64, requests);
    metrics.set("trace.spans", tracer.spans.len() as f64, tracer.spans.len());
    metrics.set("trace.faults", faults.len() as f64, tracer.spans.len());
    let dir = harness::results_dir();
    let path = dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(workload)));
    match written {
        Ok(()) => println!("trace {workload} {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Σ time / Σ rows, ns per row.
#[derive(Debug, Default)]
struct PerRow {
    ns: u64,
    rows: u64,
    calls: usize,
}

impl PerRow {
    fn add(&mut self, ns: u64, rows: usize) {
        self.ns += ns;
        self.rows += rows as u64;
        self.calls += 1;
    }

    fn set(&self, metrics: &mut Metrics, name: &str) {
        if self.rows > 0 {
            metrics.set(name, self.ns as f64 / self.rows as f64, self.calls);
        }
    }
}

/// Accumulated probes of the layers below the engine.
#[derive(Debug, Default)]
pub struct Below {
    compile: Vec<u64>,
    build: PerRow,
    build_par: PerRow,
    incremental: Vec<u64>,
    bnl_matrix: PerRow,
    bnl_generic: PerRow,
    bnl_parallel: PerRow,
    sfs: PerRow,
    dnc: PerRow,
    matrix_path_ns: u64,
    generic_path_ns: u64,
    result_share: Vec<f64>,
    select: PerRow,
    stats_of: PerRow,
    advance: Vec<u64>,
    push: Vec<u64>,
    delete: Vec<u64>,
}

impl Below {
    /// `eval`: compile `term` and build its matrix over `r`, one thread
    /// and all cores. `None` when the term does not materialize on `r`
    /// (the engine then walks the term generically).
    pub fn eval(
        &mut self,
        tracer: &mut Tracer,
        parent: usize,
        term: &Pref,
        r: &Relation,
    ) -> Option<(CompiledPref, ScoreMatrix, u64)> {
        let (compiled, ns) = tracer.child("eval.compile", parent, || {
            CompiledPref::compile(term, r.schema())
        });
        let compiled = compiled.ok()?;
        self.compile.push(ns);
        let (matrix, build_ns) =
            tracer.child("eval.matrix_build", parent, || compiled.score_matrix(r));
        let matrix = matrix?;
        self.build.add(build_ns, r.len());
        let (_, ns) = tracer.child("eval.matrix_build_par", parent, || {
            compiled.score_matrix_parallel(r, CONNECTIONS)
        });
        self.build_par.add(ns, r.len());
        Some((compiled, matrix, build_ns))
    }

    /// `algorithms`: every skyline algorithm on the one prebuilt
    /// matrix. Returns the matrix-BNL and generic-BNL row sets, which
    /// must agree with the engine's answer.
    pub fn algorithms(
        &mut self,
        tracer: &mut Tracer,
        parent: usize,
        compiled: &CompiledPref,
        matrix: &ScoreMatrix,
        build_ns: u64,
        r: &Relation,
    ) -> (Vec<usize>, Vec<usize>) {
        let (via_matrix, ns) = tracer.child("algorithms.bnl_matrix", parent, || bnl_matrix(matrix));
        self.bnl_matrix.add(ns, r.len());
        self.matrix_path_ns += build_ns + ns;
        let (via_generic, ns) = tracer.child("algorithms.bnl_generic", parent, || {
            bnl_generic(compiled, r)
        });
        self.bnl_generic.add(ns, r.len());
        self.generic_path_ns += ns;
        let (_, ns) = tracer.child("algorithms.bnl_parallel", parent, || {
            bnl_parallel_matrix(matrix, CONNECTIONS)
        });
        self.bnl_parallel.add(ns, r.len());
        // SFS and D&C only apply to some terms (a monotone utility, a
        // Pareto of chains); the others do not count.
        let (sfs, ns) = tracer.child("algorithms.sfs", parent, || {
            try_sfs_with(compiled, r, Some(matrix))
        });
        if sfs.is_some() {
            self.sfs.add(ns, r.len());
        }
        let (dnc, ns) = tracer.child("algorithms.dnc", parent, || try_dnc_compiled(compiled, r));
        if dnc.is_some() {
            self.dnc.add(ns, r.len());
        }
        self.result_share
            .push(via_matrix.len() as f64 / r.len().max(1) as f64);
        (via_matrix, via_generic)
    }

    /// `relation` / `colstats` / incremental `eval`: a scan, a stats
    /// snapshot, and what one appended (then one deleted) row costs each
    /// of them. `keep` is the scan's predicate.
    pub fn storage(
        &mut self,
        tracer: &mut Tracer,
        parent: usize,
        r: &Relation,
        keep: impl Fn(&pref_relation::Tuple) -> bool,
        built: Option<(&CompiledPref, &ScoreMatrix)>,
    ) {
        let (_, ns) = tracer.child("relation.select", parent, || {
            r.select_derived(keep, 0x5e_1ec7)
        });
        self.select.add(ns, r.len());
        let (snapshot, ns) = tracer.child("colstats.of", parent, || ColumnStats::of(r));
        self.stats_of.add(ns, r.len());
        if r.is_empty() {
            return;
        }
        let mut grown = r.clone();
        let row = r.row(0).clone();
        let (_, ns) = tracer.child("relation.push", parent, || grown.push(row));
        self.push.push(ns);
        let (_, ns) = tracer.child("colstats.advance", parent, || {
            ColumnStats::advance(Some(&snapshot), &grown)
        });
        self.advance.push(ns);
        if let Some((compiled, matrix)) = built {
            let (_, ns) = tracer.child("eval.matrix_incremental", parent, || {
                compiled.score_matrix_incremental(&grown, matrix, r.len(), &[], 1)
            });
            self.incremental.push(ns);
        }
        let (_, ns) = tracer.child("relation.delete", parent, || grown.delete_row(0));
        self.delete.push(ns);
    }

    pub fn report(&self, metrics: &mut Metrics) {
        set_median(metrics, "eval.compile_ns", &self.compile);
        self.build.set(metrics, "eval.matrix_build_ns_per_row");
        self.build_par
            .set(metrics, "eval.matrix_build_par_ns_per_row");
        set_median(metrics, "eval.matrix_incremental_ns", &self.incremental);
        self.bnl_matrix
            .set(metrics, "algorithms.bnl_matrix_ns_per_row");
        self.bnl_generic
            .set(metrics, "algorithms.bnl_generic_ns_per_row");
        self.bnl_parallel
            .set(metrics, "algorithms.bnl_parallel_ns_per_row");
        self.sfs.set(metrics, "algorithms.sfs_ns_per_row");
        self.dnc.set(metrics, "algorithms.dnc_ns_per_row");
        if self.generic_path_ns > 0 {
            metrics.set(
                "algorithms.matrix_vs_generic",
                self.matrix_path_ns as f64 / self.generic_path_ns as f64,
                self.result_share.len(),
            );
            metrics.set(
                "algorithms.result_share",
                stats::median(&self.result_share),
                self.result_share.len(),
            );
        }
        self.select.set(metrics, "relation.select_ns_per_row");
        self.stats_of.set(metrics, "colstats.of_ns_per_row");
        set_median(metrics, "colstats.advance_ns", &self.advance);
        set_median(metrics, "relation.push_ns", &self.push);
        set_median(metrics, "relation.delete_ns", &self.delete);
    }
}
