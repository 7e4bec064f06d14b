//! `bench` — the repository's benchmark (contract: `BENCHMARK.json`).
//!
//! ```text
//! bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!     one workload in this process; the last stdout line is the JSON
//!     object the benchmark contract reads
//! bench [--seed N] [--seconds S] [--trace] [--smoke] [--repeat K]
//!     all four workloads, each in a child process of its own (so cache
//!     state and peak RSS do not leak between them); with --repeat, K
//!     rounds on seeds N, N+1, … and a min / median / max / spread table
//! ```

mod harness;
mod layers;
mod load;
mod mutate_watch;
mod report;
mod skyline_scan;
mod sql_trace;
mod sql_traffic;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use harness::Config;
use report::{Outcome, WORKLOADS};

/// Default `--seconds`; equals `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;
/// `--seconds` of a `--smoke` run when none is given.
const SMOKE_SECONDS: f64 = 0.6;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    inject_mismatch: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        inject_mismatch: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                out.seconds = Some(s);
            }
            "--repeat" => {
                out.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            // `--trace` alone switches tracing on; the contract's
            // driver passes `--trace 0` or `--trace 1`.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => out.smoke = true,
            // Test-only: corrupt one observed output before the oracle
            // sees it, to prove a mismatch fails the command.
            "--inject-mismatch" => out.inject_mismatch = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &out.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`; one of {WORKLOADS:?}"));
        }
    }
    Ok(out)
}

fn run_workload(name: &str, cfg: &Config, trace: bool) -> Outcome {
    match name {
        "sessions-warm" => sql_traffic::run(sql_traffic::Kind::SessionsWarm, cfg, trace),
        "adhoc-cold" => sql_traffic::run(sql_traffic::Kind::AdhocCold, cfg, trace),
        "skyline-scan" => skyline_scan::run(cfg, trace),
        "mutate-watch" => mutate_watch::run(cfg, trace),
        other => unreachable!("parse_args admitted workload `{other}`"),
    }
}

/// What the parent keeps of one child run.
#[derive(Debug, Default)]
struct ChildRun {
    /// `(name, value, unit, samples)` per `metric` line.
    metrics: Vec<(String, f64, String, u64)>,
    attempted: u64,
    failed: u64,
    ok: bool,
}

/// Run one workload in a child process, echo its output, and read the
/// `metric` / `result` lines back.
fn run_child(args: &Args, workload: &str, seed: u64) -> ChildRun {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.inject_mismatch {
        cmd.arg("--inject-mismatch");
    }
    let output = cmd.output().expect("spawn own executable");
    let stdout = String::from_utf8_lossy(&output.stdout);
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let mut run = ChildRun {
        ok: output.status.success(),
        ..ChildRun::default()
    };
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["metric", _, name, value, unit, n] => {
                println!("{line}");
                let value = value.parse().unwrap_or(f64::NAN);
                let n = n.trim_start_matches("n=").parse().unwrap_or(0);
                run.metrics
                    .push((name.to_string(), value, unit.to_string(), n));
            }
            ["result", _, "attempted", attempted, "failed", failed, ..] => {
                println!("{line}");
                run.attempted = attempted.parse().unwrap_or(0);
                run.failed = failed.parse().unwrap_or(0);
            }
            [first, ..] if !first.starts_with('{') => println!("{line}"),
            _ => {}
        }
    }
    run
}

/// The results document of a full invocation.
fn results_json(args: &Args, rounds: &[Vec<(String, ChildRun)>]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = format!(
        "{{\n  \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"nproc\": {nproc},\n  \"rounds\": [\n",
        args.seed, args.trace, args.smoke
    );
    for (r, round) in rounds.iter().enumerate() {
        out.push_str("    {\n");
        for (w, (workload, run)) in round.iter().enumerate() {
            let _ = write!(
                out,
                "      \"{workload}\": {{\"attempted\": {}, \"failed\": {}, \"metrics\": {{",
                run.attempted, run.failed
            );
            for (i, (name, value, unit, n)) in run.metrics.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    out,
                    "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\", \"n\": {n}}}"
                );
            }
            out.push_str(if w + 1 < round.len() { "}},\n" } else { "}}\n" });
        }
        out.push_str(if r + 1 < rounds.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// `--repeat`: per metric × workload, min / median / max over the
/// rounds, the range spread (max − min) / median, and the quartile
/// spread (Q3 − Q1) / median the benchmark contract bounds.
fn print_spread(rounds: &[Vec<(String, ChildRun)>]) {
    let mut cells: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (workload, run) in rounds.iter().flatten() {
        for (name, value, _, _) in &run.metrics {
            cells
                .entry((workload.clone(), name.clone()))
                .or_default()
                .push(*value);
        }
    }
    println!("| workload | metric | min | median | max | (max-min)/median | IQR/median |");
    println!("|---|---|---|---|---|---|---|");
    for ((workload, name), values) in &cells {
        let median = stats::median(values);
        let (min, max) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(*v), hi.max(*v))
            });
        let (q1, q3) = stats::quartiles(values);
        let rel = |x: f64| if median == 0.0 { 0.0 } else { x / median };
        println!(
            "| {workload} | {name} | {min:.4} | {median:.4} | {max:.4} | {:.3} | {:.3} |",
            rel(max - min),
            rel(q3 - q1)
        );
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(workload) = &args.workload {
        let cfg = Config {
            seed: args.seed,
            seconds: args.seconds.unwrap_or(if args.smoke {
                SMOKE_SECONDS
            } else {
                RUN_SECONDS
            }),
            smoke: args.smoke,
            inject_mismatch: args.inject_mismatch,
        };
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        println!(
            "workload {workload} seed {} seconds {} trace {} nproc {nproc}",
            cfg.seed,
            cfg.seconds,
            u8::from(args.trace)
        );
        let outcome = run_workload(workload, &cfg, args.trace);
        report::print(workload, &outcome);
        return if outcome.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut rounds = Vec::new();
    let mut ok = true;
    for round in 0..args.repeat.max(1) {
        let seed = args.seed + round as u64;
        let runs: Vec<(String, ChildRun)> = WORKLOADS
            .iter()
            .map(|w| (w.to_string(), run_child(&args, w, seed)))
            .collect();
        ok &= runs.iter().all(|(_, r)| r.ok && r.failed == 0);
        rounds.push(runs);
    }
    if args.repeat > 1 {
        print_spread(&rounds);
    }
    let dir = harness::results_dir();
    let path = dir.join("latest.json");
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, results_json(&args, &rounds)))
    {
        Ok(()) => println!("results {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn trace_takes_an_optional_value() {
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--trace", "1", "--smoke"]).unwrap().trace);
        let a = args(&["--trace", "0", "--seed", "9"]).unwrap();
        assert!(!a.trace);
        assert_eq!(a.seed, 9);
        let a = args(&["--trace", "--workload", "adhoc-cold"]).unwrap();
        assert!(a.trace);
        assert_eq!(a.workload.as_deref(), Some("adhoc-cold"));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seconds", "61"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }
}
