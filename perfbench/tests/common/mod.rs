//! Shared by the integration tests: run the `bench` binary and read its
//! line-oriented output and `BENCHMARK.json` without a JSON parser.

// Each test crate compiles this module and uses its own part of it.
#![allow(dead_code)]

use std::path::PathBuf;
use std::process::Command;

pub const WORKLOADS: [&str; 4] = [
    "sessions-warm",
    "adhoc-cold",
    "skyline-scan",
    "mutate-watch",
];

/// One `metric <workload> <name> <value> <unit> n=<count>` line.
#[derive(Debug, Clone)]
pub struct MetricLine {
    pub workload: String,
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub n: usize,
}

#[derive(Debug)]
pub struct Run {
    pub success: bool,
    pub stdout: String,
}

/// Run `bench` with `args`, span files and `latest.json` going to a
/// directory of this test's own (tests run in parallel).
pub fn bench(tag: &str, args: &[&str]) -> Run {
    let results = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .env("PERFBENCH_RESULTS_DIR", &results)
        .output()
        .expect("run the bench binary");
    Run {
        success: output.status.success(),
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
    }
}

impl Run {
    pub fn metrics(&self) -> Vec<MetricLine> {
        self.stdout
            .lines()
            .filter_map(|line| {
                let w: Vec<&str> = line.split_whitespace().collect();
                let ["metric", workload, name, value, unit, n] = w.as_slice() else {
                    return None;
                };
                Some(MetricLine {
                    workload: workload.to_string(),
                    name: name.to_string(),
                    value: value.parse().expect("metric value is a number"),
                    unit: unit.to_string(),
                    n: n.strip_prefix("n=")
                        .expect("sample count is printed as n=<count>")
                        .parse()
                        .expect("sample count is a whole number"),
                })
            })
            .collect()
    }

    pub fn metric(&self, workload: &str, name: &str) -> MetricLine {
        let all: Vec<MetricLine> = self
            .metrics()
            .into_iter()
            .filter(|m| m.workload == workload && m.name == name)
            .collect();
        assert_eq!(all.len(), 1, "{workload} prints {name} exactly once");
        all[0].clone()
    }

    /// `(attempted, failed)` of a workload's `result` line.
    pub fn result(&self, workload: &str) -> Option<(u64, u64)> {
        self.stdout.lines().find_map(|line| {
            let w: Vec<&str> = line.split_whitespace().collect();
            match w.as_slice() {
                ["result", name, "attempted", a, "failed", f, ..] if *name == workload => {
                    Some((a.parse().ok()?, f.parse().ok()?))
                }
                _ => None,
            }
        })
    }

    /// The words after `<key> <workload>` on the first such line.
    pub fn field(&self, key: &str, workload: &str) -> Option<String> {
        self.stdout.lines().find_map(|line| {
            let rest = line
                .strip_prefix(key)?
                .trim_start()
                .strip_prefix(workload)?;
            Some(rest.trim().to_string())
        })
    }
}

/// `(name, unit)` of every entry of one `BENCHMARK.json` section
/// (`"workloads"`, `"end_to_end"`, `"per_layer"`); workloads have no
/// unit. The file keeps one entry per line.
pub fn benchmark_json(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let string_after = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\""))? + key.len() + 2..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.lines()
        .filter_map(|line| {
            let name = string_after(line, "name")?;
            Some((name, string_after(line, "unit").unwrap_or_default()))
        })
        .collect()
}
