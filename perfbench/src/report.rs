//! Metric names, units and the output formats of one workload run.
//!
//! `END_TO_END` and `PER_LAYER` are the names `BENCHMARK.json` commits
//! to (a test compares the two). An untraced run reports every
//! end-to-end metric; a traced run reports every per-layer metric — a
//! layer the workload never enters reads 0 with `n=0`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats;

pub const WORKLOADS: [&str; 4] = [
    "sessions-warm",
    "adhoc-cold",
    "skyline-scan",
    "mutate-watch",
];

/// `(name, unit)` of the metrics a user of the system would see.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of the per-layer metrics, outside-in.
pub const PER_LAYER: [(&str, &str); 85] = [
    // End-to-end quantities only some workloads have (the contract
    // wants every end-to-end metric on every workload, never 0).
    ("query_p99_ms", "ms"),
    ("query_open_p50_ms", "ms"),
    ("query_open_p90_ms", "ms"),
    ("mutate_p50_ms", "ms"),
    ("mutate_p99_ms", "ms"),
    ("push_lag_p50_ms", "ms"),
    ("push_lag_p95_ms", "ms"),
    ("error_rate", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.achieved_rps", "1/s"),
    ("loadgen.wraps", "count"),
    ("harness.calib_ns", "ns"),
    ("harness.calib_drift_pct", "%"),
    ("harness.trace_overhead_pct", "%"),
    ("protocol.parse_ns", "ns"),
    ("protocol.frame_ns", "ns"),
    ("protocol.frame_bytes", "B"),
    ("server.wire_ns", "ns"),
    ("session.handle_ns", "ns"),
    ("session.self_ns", "ns"),
    ("session.append_ns", "ns"),
    ("session.delete_ns", "ns"),
    ("session.watch_eval_ns", "ns"),
    ("session.pushes_per_mutation", "ratio"),
    ("parser.parse_ns", "ns"),
    ("parser.sql_bytes", "B"),
    ("rewrite.bind_ns", "ns"),
    ("executor.execute_ns", "ns"),
    ("executor.self_ns", "ns"),
    ("executor.prepared_execute_ns", "ns"),
    ("executor.append_ns", "ns"),
    ("executor.delete_ns", "ns"),
    ("executor.candidates", "rows"),
    ("executor.result_rows", "rows"),
    ("executor.rows_examined_per_result", "ratio"),
    ("plan.plan_ns", "ns"),
    ("plan.cached_ns", "ns"),
    ("plan.est_result_ratio", "ratio"),
    ("plan.chose_bnl", "count"),
    ("plan.chose_parallel_bnl", "count"),
    ("plan.chose_sfs", "count"),
    ("plan.chose_dnc", "count"),
    ("plan.chose_cascade", "count"),
    ("plan.chose_elided", "count"),
    ("plan.chose_other", "count"),
    ("engine.prepare_ns", "ns"),
    ("engine.execute_ns.hit", "ns"),
    ("engine.execute_ns.derived_hit", "ns"),
    ("engine.execute_ns.window_hit", "ns"),
    ("engine.execute_ns.shard_hit", "ns"),
    ("engine.execute_ns.maintained_hit", "ns"),
    ("engine.execute_ns.miss", "ns"),
    ("engine.execute_ns.bypass", "ns"),
    ("engine.served.hit", "count"),
    ("engine.served.derived_hit", "count"),
    ("engine.served.window_hit", "count"),
    ("engine.served.shard_hit", "count"),
    ("engine.served.maintained_hit", "count"),
    ("engine.served.miss", "count"),
    ("engine.served.bypass", "count"),
    ("engine.warm_share", "ratio"),
    ("engine.resident_matrices", "count"),
    ("engine.resident_results", "count"),
    ("eval.compile_ns", "ns"),
    ("eval.matrix_build_ns_per_row", "ns"),
    ("eval.matrix_build_par_ns_per_row", "ns"),
    ("eval.matrix_incremental_ns", "ns"),
    ("algorithms.bnl_matrix_ns_per_row", "ns"),
    ("algorithms.bnl_generic_ns_per_row", "ns"),
    ("algorithms.bnl_parallel_ns_per_row", "ns"),
    ("algorithms.sfs_ns_per_row", "ns"),
    ("algorithms.dnc_ns_per_row", "ns"),
    ("algorithms.result_share", "ratio"),
    ("algorithms.matrix_vs_generic", "ratio"),
    ("bmo.oracle_checked", "count"),
    ("bmo.oracle_mismatches", "count"),
    ("relation.select_ns_per_row", "ns"),
    ("relation.push_ns", "ns"),
    ("relation.delete_ns", "ns"),
    ("colstats.of_ns_per_row", "ns"),
    ("colstats.advance_ns", "ns"),
    ("trace.requests", "count"),
    ("trace.spans", "count"),
    ("trace.faults", "count"),
    ("trace.negative_self_times", "count"),
];

/// One reported number with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub n: usize,
}

/// The metrics of one run, keyed by name; `table` decides which names
/// exist and their units.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, Metric>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Record `name`. Panics on a name outside the table: that is a bug
    /// in the harness, and a silently dropped metric would hide it.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let (key, _) = self
            .table
            .iter()
            .find(|(k, _)| *k == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.values.insert(key, Metric { value, n });
    }

    /// Every metric of the table, in table order, as
    /// `(name, unit, metric)`; unset ones read 0 with no samples.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, Metric)> + '_ {
        self.table.iter().map(|&(name, unit)| {
            let m = self
                .values
                .get(name)
                .copied()
                .unwrap_or(Metric { value: 0.0, n: 0 });
            (name, unit, m)
        })
    }
}

/// What one workload run found.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over every generated input: the same seed must give the
    /// same hash, another seed another one.
    pub input_hash: u64,
    pub metrics: Metrics,
    /// The first few failures, verbatim.
    pub failures: Vec<String>,
}

/// FNV-1a, the input fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }
}

/// Print the highest percentile of a latency sample that still has ten
/// samples beyond it (`tail <workload> <what> p99.9 <ms> ms n=<count>`):
/// the committed metrics name fixed percentiles so that runs compare;
/// this line says how far into the tail this run's sample could see.
pub fn print_tail(workload: &str, what: &str, sorted_ns: &[u64]) {
    if let Some((q, ns)) = stats::tail_percentile(sorted_ns) {
        println!(
            "tail {workload} {what} p{:.1} {} ms n={}",
            q * 100.0,
            ns as f64 / 1e6,
            sorted_ns.len()
        );
    }
}

/// Print the run's lines: one `metric` line per metric (name, value,
/// unit, sample count), a `result` line, and last the one-line JSON
/// object the benchmark contract reads.
pub fn print(workload: &str, o: &Outcome) {
    println!("input_hash {workload} {:016x}", o.input_hash);
    for f in &o.failures {
        println!("failure {workload} {f}");
    }
    let mut json = String::new();
    for (name, unit, m) in o.metrics.rows() {
        println!("metric {workload} {name} {} {unit} n={}", m.value, m.n);
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            m.value
        );
    }
    let correct = o.failed == 0;
    println!(
        "result {workload} attempted {} failed {} correct {correct}",
        o.attempted, o.failed
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        o.attempted, o.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn unset_metrics_read_zero_and_unknown_names_panic() {
        let mut m = Metrics::new(&END_TO_END);
        m.set("setup_s", 1.5, 3);
        let rows: Vec<_> = m.rows().collect();
        assert_eq!(rows.len(), END_TO_END.len());
        assert_eq!(rows[0], ("setup_s", "s", Metric { value: 1.5, n: 3 }));
        assert_eq!(rows[1].2, Metric { value: 0.0, n: 0 });
        assert!(std::panic::catch_unwind(move || m.set("nope", 1.0, 1)).is_err());
    }

    #[test]
    fn fnv_separates_fields() {
        let h = |parts: &[&str]| {
            let mut f = Fnv::new();
            parts.iter().for_each(|p| f.str(p));
            f.0
        };
        assert_ne!(h(&["ab", "c"]), h(&["a", "bc"]));
        assert_eq!(h(&["x"]), h(&["x"]));
    }
}
