//! The whole benchmark at smoke size (≈ 500 rows, well under a second
//! per phase): every workload runs, prints exactly the metrics
//! `BENCHMARK.json` names, and finds nothing wrong.

mod common;

use common::{bench, benchmark_json, WORKLOADS};

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_names_the_four_workloads() {
    let names: Vec<String> = benchmark_json("workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn untraced_smoke_run_reports_every_end_to_end_metric() {
    let run = bench("smoke-untraced", &["--smoke"]);
    assert!(run.success, "{}", run.stdout);
    let expected = benchmark_json("end_to_end");
    assert!(expected.iter().any(|(name, _)| name == "setup_s"));
    for workload in WORKLOADS {
        let (attempted, failed) = run.result(workload).expect("every workload ran");
        assert!(attempted >= 1, "{workload} attempted nothing");
        assert_eq!(failed, 0, "{workload}: {}", run.stdout);
        let printed: Vec<_> = run
            .metrics()
            .into_iter()
            .filter(|m| m.workload == workload)
            .collect();
        assert_eq!(
            printed.len(),
            expected.len(),
            "{workload} prints only these"
        );
        for (name, unit) in &expected {
            assert!(well_formed(name), "{name}");
            let m = run.metric(workload, name);
            assert_eq!(&m.unit, unit, "{workload} {name}");
            assert!(m.n >= 1, "{workload} {name} has no samples");
            assert!(m.value > 0.0, "{workload} {name} must never read 0");
        }
    }
}

#[test]
fn traced_smoke_run_reports_every_per_layer_metric_and_no_fault() {
    let run = bench("smoke-traced", &["--smoke", "--trace"]);
    assert!(run.success, "{}", run.stdout);
    let expected = benchmark_json("per_layer");
    assert!(expected.len() <= 128);
    for workload in WORKLOADS {
        assert_eq!(run.result(workload).map(|r| r.1), Some(0), "{}", run.stdout);
        let printed = run
            .metrics()
            .iter()
            .filter(|m| m.workload == workload)
            .count();
        assert_eq!(printed, expected.len(), "{workload} prints only these");
        for (name, unit) in &expected {
            assert!(well_formed(name), "{name}");
            assert_eq!(&run.metric(workload, name).unit, unit, "{workload} {name}");
        }
        for zero in [
            "loadgen.wraps",
            "bmo.oracle_mismatches",
            "error_rate",
            "trace.faults",
        ] {
            assert_eq!(run.metric(workload, zero).value, 0.0, "{workload} {zero}");
        }
        assert!(run.metric(workload, "bmo.oracle_checked").value >= 1.0);
    }
}

#[test]
fn the_seed_decides_the_inputs() {
    let one = bench("seed-1", &["--smoke", "--seed", "1"]);
    let again = bench("seed-1-again", &["--smoke", "--seed", "1", "--trace"]);
    let other = bench("seed-2", &["--smoke", "--seed", "2"]);
    for workload in WORKLOADS {
        let hash = |run: &common::Run| run.field("input_hash", workload).expect("hash printed");
        assert_eq!(
            hash(&one),
            hash(&again),
            "{workload}: same seed, same inputs"
        );
        assert_ne!(
            hash(&one),
            hash(&other),
            "{workload}: other seed, other inputs"
        );
    }
}
