//! The traced run: span files are well-formed trees, every layer a
//! workload exercises reports samples, and an output mismatch fails the
//! command.

mod common;

use common::{bench, WORKLOADS};

#[derive(Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request_id: u64,
}

/// The text after `"key": ` up to the next `,` or `}`.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let at = line
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("span line lacks {key}: {line}"));
    let rest = &line[at + key.len() + 4..];
    rest[..rest.find([',', '}']).expect("field ends")].trim()
}

fn read_spans(path: &str) -> Vec<Span> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    text.lines()
        .filter(|l| l.starts_with("{\"id\""))
        .enumerate()
        .map(|(i, line)| {
            assert_eq!(field(line, "id"), i.to_string(), "ids count up");
            Span {
                name: field(line, "name").trim_matches('"').to_string(),
                start_ns: field(line, "start_ns").parse().expect("start_ns"),
                end_ns: field(line, "end_ns").parse().expect("end_ns"),
                parent: field(line, "parent").parse().ok(),
                request_id: field(line, "request_id").parse().expect("request_id"),
            }
        })
        .collect()
}

#[test]
fn span_files_are_well_formed_and_layers_report() {
    let run = bench("trace-shape", &["--smoke", "--trace"]);
    assert!(run.success, "{}", run.stdout);
    for workload in WORKLOADS {
        let path = run
            .field("trace", workload)
            .expect("span file path printed");
        let spans = read_spans(&path);
        assert_eq!(
            spans.len() as f64,
            run.metric(workload, "trace.spans").value,
            "{workload}: the file holds every span"
        );
        let mut children_ns = vec![0u64; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            assert!(s.end_ns >= s.start_ns, "{workload} span {i} runs backwards");
            let Some(p) = s.parent else { continue };
            assert!(
                p < i,
                "{workload} span {i}: parent {p} is not an earlier span"
            );
            let parent = &spans[p];
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "{workload} span {i} ({}) leaves its parent ({})",
                s.name,
                parent.name
            );
            assert_eq!(s.request_id, parent.request_id, "{workload} span {i}");
            children_ns[p] += s.end_ns - s.start_ns;
        }
        for (i, s) in spans.iter().enumerate() {
            assert!(
                s.end_ns - s.start_ns >= children_ns[i],
                "{workload} span {i} ({}) has a negative self time",
                s.name
            );
        }
        assert!(
            spans.iter().any(|s| s.parent.is_none()),
            "{workload} has roots"
        );
    }

    // Layers each workload is there to exercise must have samples.
    let sampled = |workload: &str, names: &[&str]| {
        for name in names {
            let m = run.metric(workload, name);
            assert!(m.n > 0 && m.value > 0.0, "{workload} {name}: {m:?}");
        }
    };
    let protocol_path = [
        "protocol.parse_ns",
        "protocol.frame_ns",
        "server.wire_ns",
        "session.handle_ns",
        "parser.parse_ns",
        "rewrite.bind_ns",
        "executor.execute_ns",
        "executor.self_ns",
        "plan.plan_ns",
        "engine.prepare_ns",
        "eval.matrix_build_ns_per_row",
        "query_p99_ms",
        "loadgen.achieved_rps",
    ];
    sampled("sessions-warm", &protocol_path);
    sampled(
        "sessions-warm",
        &[
            "engine.execute_ns.window_hit",
            "engine.warm_share",
            "loadgen.late_p99_ms",
        ],
    );
    sampled("adhoc-cold", &protocol_path);
    sampled(
        "adhoc-cold",
        &["engine.execute_ns.miss", "relation.select_ns_per_row"],
    );
    sampled("mutate-watch", &protocol_path);
    sampled(
        "mutate-watch",
        &[
            "engine.execute_ns.maintained_hit",
            "session.append_ns",
            "session.delete_ns",
            "session.watch_eval_ns",
            "session.pushes_per_mutation",
            "executor.append_ns",
            "executor.delete_ns",
            "executor.prepared_execute_ns",
            "mutate_p50_ms",
            "mutate_p99_ms",
            "push_lag_p50_ms",
            "push_lag_p95_ms",
        ],
    );
    sampled(
        "skyline-scan",
        &[
            "algorithms.bnl_matrix_ns_per_row",
            "algorithms.bnl_generic_ns_per_row",
            "algorithms.bnl_parallel_ns_per_row",
            "algorithms.sfs_ns_per_row",
            "algorithms.dnc_ns_per_row",
            "algorithms.matrix_vs_generic",
            "algorithms.result_share",
            "eval.compile_ns",
            "eval.matrix_build_ns_per_row",
            "eval.matrix_build_par_ns_per_row",
            "eval.matrix_incremental_ns",
            "relation.push_ns",
            "relation.delete_ns",
            "colstats.of_ns_per_row",
            "colstats.advance_ns",
            "plan.plan_ns",
            "plan.est_result_ratio",
        ],
    );
    // … and a layer a workload never enters reads 0 with no samples.
    let m = run.metric("skyline-scan", "server.wire_ns");
    assert_eq!((m.value, m.n), (0.0, 0));
}

#[test]
fn an_injected_mismatch_fails_the_command() {
    for workload in WORKLOADS {
        let args = ["--smoke", "--workload", workload, "--inject-mismatch"];
        let untraced = bench(&format!("inject-{workload}"), &args);
        assert!(!untraced.success, "{workload}: exit code must be non-zero");
        let (_, failed) = untraced.result(workload).expect("result line");
        assert!(failed >= 1, "{workload}: {}", untraced.stdout);
        assert!(untraced.stdout.contains("\"correct\": false"));

        let traced = bench(
            &format!("inject-traced-{workload}"),
            &[&args[..], &["--trace", "1"]].concat(),
        );
        assert!(
            !traced.success,
            "{workload} traced: exit code must be non-zero"
        );
        assert!(traced.metric(workload, "error_rate").value > 0.0);
        assert!(traced.metric(workload, "bmo.oracle_mismatches").value >= 1.0);
    }
}
