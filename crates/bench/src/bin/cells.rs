//! Per-cell times of the `skyline-scan` grid — the table an algorithm PR
//! quotes at parent and change (`perfbench` reports one number per pass):
//! `cells [--rows N] [--seed N]`, {independent, correlated,
//! anti-correlated} × d ∈ {2, 4, 6} × {skyline, around}, every cell a
//! fresh `Engine::new().prepare → execute → take_rows`, best of 3.
//! Exits non-zero when any cell's rows differ from `bnl_generic`.

use pref_bench::{around_pref, skyline_pref, time_ms};
use pref_core::eval::CompiledPref;
use pref_query::algorithms::bnl::bnl_generic;
use pref_query::Engine;
use pref_workload::synthetic::{self, Distribution};

fn main() {
    let (mut rows, mut seed) = (25_000usize, 1u64);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args.next().and_then(|v| v.parse::<u64>().ok());
        match (arg.as_str(), value) {
            ("--rows", Some(v)) => rows = v as usize,
            ("--seed", Some(v)) => seed = v,
            _ => {
                eprintln!("usage: cells [--rows N] [--seed N]");
                std::process::exit(2);
            }
        }
    }
    let (mut total, mut wrong) = (0.0f64, 0usize);
    println!("distribution d shape |σ| algorithm ms");
    for dist in Distribution::all() {
        for d in [2, 4, 6] {
            let r = synthetic::table(rows, d, dist, seed);
            for (shape, pref) in [("skyline", skyline_pref(d)), ("around", around_pref(d))] {
                let (mut best, mut report) = (f64::INFINITY, None);
                for _ in 0..3 {
                    let (out, ms) = time_ms(|| {
                        let p = Engine::new().prepare(&pref, r.schema()).expect("compiles");
                        let (rows, explain) = p.execute(&r).expect("evaluates").into_parts();
                        (r.take_rows(&rows).len(), rows, explain.algorithm)
                    });
                    best = best.min(ms);
                    report = Some(out);
                }
                let (n, got, algorithm) = report.expect("three runs");
                let c = CompiledPref::compile(&pref, r.schema()).expect("cell compiles");
                let ok = got == bnl_generic(&c, &r);
                wrong += usize::from(!ok);
                total += best;
                let mark = if ok { "" } else { "  ≠ bnl_generic" };
                let name = dist.name();
                println!("{name} {d} {shape} {n} {algorithm} {best:.2}{mark}");
            }
        }
    }
    println!("pass total {total:.1} ms");
    std::process::exit(i32::from(wrong > 0));
}
