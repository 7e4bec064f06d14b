//! Per-cell times of the `skyline-scan` grid — the table an algorithm PR
//! quotes at parent and change (`perfbench` reports one number per pass):
//! `cells [--rows N] [--seed N] [--algorithm sfs|dnc|bnl]`, {independent,
//! correlated, anti-correlated} × d ∈ {2, 4, 6} × {skyline, around}, every
//! cell a fresh engine's `prepare → execute → take_rows`, best of 3.
//! `--algorithm` forces one algorithm on every cell it applies to (`n/a`
//! elsewhere) — the SFS-vs-D&C table a routing change is argued from;
//! unforced, the planner chooses. Unscored lines after the pass total
//! time the skyline of a table whose first dimension has four values
//! (many equal-dim0 runs), the independent and anti-correlated d = 3
//! skylines (D&C's staircase at grid scale), then the three car-table
//! terms `mutate-watch` runs over `cars::catalog(rows · 4/5, seed)` (20 000
//! rows by default): the 2-d and 3-d watch terms (D&C's sweep and
//! staircase) and the BMW rows under `price AROUND 15000
//! ⊗ LOWEST(mileage)` (SFS); then three lines for the routes of the shape
//! rule that the grid does not reach: the fourth watch, `transmission =
//! 'automatic' PRIOR TO (LOWEST(price) ⊗ HIGHEST(year))` (a POS head split),
//! an AROUND head that keeps two values of the four-valued `d0` over the
//! `around_pref` tail (two buckets), and a POS ⊗ layered Pareto over the
//! car table (key lanes, no utility); then two GROUP BY terms over the
//! car table (Def. 16's `A↔ & P`, an anti-chain head split): `make↔ &
//! (LOWEST(price) ⊗ LOWEST(mileage))` and `{make, category}↔ & (price
//! AROUND 15000 ⊗ LOWEST(mileage))`; last, three `adhoc-cold` shapes —
//! two Pareto terms over string and numeric columns of the BMW rows and
//! `transmission = 'automatic' PRIOR TO (AROUND(horsepower) ⊗
//! LOWEST(price))` over the car table — each with its score-matrix build
//! time (best of 3) after the total; then four unforced `TOP k` lines
//! over the car table, dense and after a `DELETE … WHERE year = 1988`
//! (tombstones): `TOP 5 … LOWEST(price) ⊗ LOWEST(mileage)` (D&C, no
//! matrix) and `TOP 50 … price AROUND 15000 ⊗ LOWEST(mileage)` (one
//! matrix), each the first and the repeated `k_best` on one engine with
//! its time and matrix tier. Exits non-zero when any cell's rows differ
//! from `bnl_generic` (a TOP line's from a peel of `bnl_generic` over the
//! rows left) or any execution fails other than by a forced algorithm
//! rejecting the term.

use pref_bench::{around_pref, skyline_pref, time_ms};
use pref_core::base::layered::Layer;
use pref_core::eval::CompiledPref;
use pref_core::prelude::{antichain, around, highest, layered, lowest, neg, pos};
use pref_core::term::Pref;
use pref_query::algorithms::bnl::bnl_generic;
use pref_query::{Algorithm, Engine, Optimizer, QueryError};
use pref_relation::{Relation, Value};
use pref_workload::cars;
use pref_workload::synthetic::{self, Distribution};

/// Whether a failed execution is `n/a` rather than a wrong cell: only a
/// forced algorithm rejecting the term is.
fn not_applicable(force: Option<Algorithm>, e: &QueryError) -> bool {
    force.is_some() && matches!(e, QueryError::AlgorithmMismatch { .. })
}

/// Print one cell — `name |σ| algorithm ms`, best of 3 through a fresh
/// engine each, `n/a` when the forced algorithm rejects the term, the
/// error on any other failure; with `build`, then `build ms`, the best
/// of 3 score-matrix builds — and return its time and whether its rows
/// equal `bnl_generic`'s.
fn cell(
    name: &str,
    force: Option<Algorithm>,
    pref: &Pref,
    r: &Relation,
    build: bool,
) -> (f64, bool) {
    let optimizer = force.map_or_else(Optimizer::new, |a| Optimizer::new().with_algorithm(a));
    let (mut best, mut report) = (f64::INFINITY, None);
    for _ in 0..3 {
        let (out, ms) = time_ms(|| {
            let engine = Engine::with_optimizer(optimizer.clone());
            let p = engine.prepare(pref, r.schema()).expect("compiles");
            let (rows, explain) = p.execute(r)?.into_parts();
            Ok::<_, QueryError>((r.take_rows(&rows).len(), rows, explain.algorithm))
        });
        best = best.min(ms);
        report = Some(out);
    }
    let (n, got, algorithm) = match report.expect("three runs") {
        Ok(out) => out,
        Err(e) if not_applicable(force, &e) => {
            println!("{name} - n/a -");
            return (0.0, true);
        }
        Err(e) => {
            println!("{name} - error -  {e}");
            return (0.0, false);
        }
    };
    let c = CompiledPref::compile(pref, r.schema()).expect("cell compiles");
    let ok = got == bnl_generic(&c, r);
    let mark = if ok { "" } else { "  ≠ bnl_generic" };
    let build = if build {
        let ms = (0..3).map(|_| time_ms(|| c.score_matrix(r)).1);
        format!(" build {:.2}", ms.fold(f64::INFINITY, f64::min))
    } else {
        String::new()
    };
    println!("{name} {n} {algorithm} {best:.2}{build}{mark}");
    (best, ok)
}

/// The first `k` rows of the BMO layers of `c` over `r`, each layer a
/// `bnl_generic` over the rows left — the reference a TOP line checks.
fn reference_peel(c: &CompiledPref, r: &Relation, k: usize) -> Vec<usize> {
    let mut rest: Vec<usize> = (0..r.len()).collect();
    let mut rows = Vec::new();
    while rows.len() < k && !rest.is_empty() {
        let layer: Vec<usize> = (bnl_generic(c, &r.take_rows(&rest)).into_iter())
            .map(|v| rest[v])
            .collect();
        rest.retain(|i| layer.binary_search(i).is_err());
        rows.extend(layer);
    }
    rows.truncate(k);
    rows
}

/// Print one TOP line — `name |rows| algorithm`, then `first <ms>
/// <tier>` and `repeat <ms> <tier>` of two `k_best` calls on one fresh
/// engine — and return whether both answers equal [`reference_peel`].
fn top(name: &str, pref: &Pref, r: &Relation, k: usize) -> bool {
    let engine = Engine::new();
    let q = engine.prepare(pref, r.schema()).expect("compiles");
    let (first, first_ms) = time_ms(|| q.k_best(r, k));
    let (repeat, repeat_ms) = time_ms(|| q.k_best(r, k));
    let ((first, report), (repeat, again)) = match (first, repeat) {
        (Ok(first), Ok(repeat)) => (first, repeat),
        (Err(e), _) | (_, Err(e)) => {
            println!("{name} - error -  {e}");
            return false;
        }
    };
    let c = CompiledPref::compile(pref, r.schema()).expect("compiles");
    let want = reference_peel(&c, r, k);
    let ok = first == want && repeat == want;
    let mark = if ok { "" } else { "  ≠ reference peel" };
    println!(
        "{name} {} {} first {first_ms:.2} {} repeat {repeat_ms:.2} {}{mark}",
        first.len(),
        report.algorithm,
        report.cache,
        again.cache
    );
    ok
}

/// `d0` of an independent 3-d table cut to {0, 1, 2, 3} with `zeros` of
/// the rows at 0, `d2` bent to trade off against `d1` (a wide skyline).
fn low_cardinality(rows: usize, zeros: f64, seed: u64) -> Relation {
    let base = synthetic::table(rows, 3, Distribution::Independent, seed);
    let mut r = Relation::empty(base.schema().clone());
    for t in base.iter() {
        let u = |i: usize| t[i].as_f64().expect("float column");
        let level = (1.0 + (u(0) - zeros) / (1.0 - zeros) * 3.0).floor();
        let a = if u(0) < zeros { 0.0 } else { level };
        let row = [a, u(1), 1.0 - u(1) + 0.05 * u(2)];
        r.push_values(row.into_iter().map(Value::from).collect())
            .expect("row matches schema");
    }
    r
}

fn main() {
    let (mut rows, mut seed, mut force) = (25_000usize, 1u64, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args.next().unwrap_or_default();
        match (arg.as_str(), value.as_str(), value.parse::<u64>()) {
            ("--rows", _, Ok(v)) => rows = v as usize,
            ("--seed", _, Ok(v)) => seed = v,
            ("--algorithm", "sfs", _) => force = Some(Algorithm::Sfs),
            ("--algorithm", "dnc", _) => force = Some(Algorithm::Dnc),
            ("--algorithm", "bnl", _) => force = Some(Algorithm::Bnl),
            _ => {
                eprintln!("usage: cells [--rows N] [--seed N] [--algorithm sfs|dnc|bnl]");
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
                let name = format!("{} {d} {shape}", dist.name());
                let (ms, ok) = cell(&name, force, &pref, &r, false);
                total += ms;
                wrong += usize::from(!ok);
            }
        }
    }
    println!("pass total {total:.1} ms");
    for zeros in [0.3, 0.7] {
        let r = low_cardinality(rows, zeros, seed);
        let name = format!("unscored: four-valued d0 ({zeros} zeros) 3 skyline");
        wrong += usize::from(!cell(&name, force, &skyline_pref(3), &r, false).1);
    }
    for dist in [Distribution::Independent, Distribution::Anticorrelated] {
        let r = synthetic::table(rows, 3, dist, seed);
        let name = format!("unscored: {} 3 skyline", dist.name());
        wrong += usize::from(!cell(&name, force, &skyline_pref(3), &r, false).1);
    }
    let four_valued = low_cardinality(rows, 0.3, seed);
    let car = cars::catalog(rows * 4 / 5, seed);
    let make = car.schema().index_of(&"make".into()).expect("car schema");
    let bmw = car.select(|t| t[make] == Value::from("BMW"));
    let watch2 = lowest("price").pareto(lowest("mileage"));
    let watch3 = watch2.clone().pareto(highest("horsepower"));
    let near = around("price", 15_000).pareto(lowest("mileage"));
    let automatic = pos("transmission", ["automatic"]);
    let watch4 = automatic
        .clone()
        .prior(lowest("price").pareto(highest("year")));
    let two_buckets = around("d0", 1.5).prior(around_pref(3));
    let compact = [
        Layer::of(["compact"]),
        Layer::of(["station wagon"]),
        Layer::Others,
    ];
    let compact = layered("category", compact.to_vec()).expect("one others layer");
    let unscored = pos("color", ["black", "silver"]).pareto(compact);
    let by_make = antichain(["make"]).prior(watch2.clone());
    let by_make_category = antichain(["make", "category"]).prior(near.clone());
    for (name, pref, r) in [
        (
            "car 2-d watch: LOWEST(price) ⊗ LOWEST(mileage)",
            &watch2,
            &car,
        ),
        ("car 3-d watch: … ⊗ HIGHEST(horsepower)", &watch3, &car),
        ("car BMW: price AROUND 15000 ⊗ LOWEST(mileage)", &near, &bmw),
        (
            "car 4th watch: automatic & (LOWEST(price) ⊗ HIGHEST(year))",
            &watch4,
            &car,
        ),
        (
            "four-valued d0: AROUND(d0; 1.5) & 3 around",
            &two_buckets,
            &four_valued,
        ),
        ("car POS(color) ⊗ layered(category)", &unscored, &car),
        (
            "car grouped: make↔ & (LOWEST(price) ⊗ LOWEST(mileage))",
            &by_make,
            &car,
        ),
        (
            "car grouped: {make, category}↔ & (price AROUND 15000 ⊗ LOWEST(mileage))",
            &by_make_category,
            &car,
        ),
    ] {
        wrong += usize::from(!cell(&format!("unscored: {name}"), force, pref, r, false).1);
    }
    let red_near = pos("color", ["red"])
        .pareto(around("price", 15_000))
        .pareto(lowest("mileage"));
    let not_red_german = neg("color", ["red"])
        .pareto(pos("make", ["BMW", "Audi"]))
        .pareto(highest("year"));
    let automatic_near = automatic.prior(around("horsepower", 120).pareto(lowest("price")));
    for (name, pref, r) in [
        (
            "adhoc BMW: POS(color) ⊗ AROUND(price) ⊗ LOWEST(mileage)",
            &red_near,
            &bmw,
        ),
        (
            "adhoc BMW: NEG(color) ⊗ POS(make) ⊗ HIGHEST(year)",
            &not_red_german,
            &bmw,
        ),
        (
            "adhoc car: automatic & (AROUND(horsepower) ⊗ LOWEST(price))",
            &automatic_near,
            &car,
        ),
    ] {
        wrong += usize::from(!cell(&format!("unscored: {name}"), force, pref, r, true).1);
    }
    let year = car.schema().index_of(&"year".into()).expect("car schema");
    let mut deleted = car.clone();
    let doomed: Vec<usize> = (0..car.len())
        .filter(|&i| car.row(i)[year] == Value::from(1988))
        .collect();
    deleted.delete_rows(&doomed);
    for (table, r) in [("car", &car), ("car after DELETE year = 1988", &deleted)] {
        for (k, name, pref) in [
            (5, "LOWEST(price) ⊗ LOWEST(mileage)", &watch2),
            (50, "price AROUND 15000 ⊗ LOWEST(mileage)", &near),
        ] {
            wrong += usize::from(!top(&format!("top: {table}: TOP {k} {name}"), pref, r, k));
        }
    }
    std::process::exit(i32::from(wrong > 0));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mismatch() -> QueryError {
        QueryError::AlgorithmMismatch {
            algorithm: "dnc",
            term: "AROUND(d0; 0.5)".into(),
            reason: "not a skyline",
        }
    }

    fn other() -> QueryError {
        QueryError::NoQualityFunction {
            attr: "d0".into(),
            quality: "level",
        }
    }

    #[test]
    fn a_forced_algorithm_rejecting_the_term_is_not_applicable() {
        assert!(not_applicable(Some(Algorithm::Dnc), &mismatch()));
    }

    #[test]
    fn any_unforced_error_is_a_wrong_cell() {
        assert!(!not_applicable(None, &mismatch()));
        assert!(!not_applicable(None, &other()));
    }

    #[test]
    fn any_other_error_under_force_is_a_wrong_cell() {
        assert!(!not_applicable(Some(Algorithm::Sfs), &other()));
    }
}
